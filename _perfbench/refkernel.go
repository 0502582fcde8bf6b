package main

import (
	"container/heap"
	"runtime"
	"time"
)

// The reference kernel is a fixed piece of work, owned by the benchmark so
// no change to the program can move it, shaped like the simulator's inner
// loop: a discrete-event queue of heap-allocated events, popped in time
// order, each updating a map and scheduling its successor. Runs time it at
// intervals through their measured loop and report every timing scaled to
// a host on which one kernel call takes refNominalMS of CPU time.
//
// The scaling is there because the host's speed moves under the benchmark:
// on a shared 2-core Xeon VM, the CPU time of a 1000Genomes simulation
// moved by up to 2x over tens of minutes, which CPU time's exclusion of
// steal time does not remove (other tenants' load on the caches and
// memory). Over a stretch where it moved by a fifth, it followed this
// kernel better than a pure arithmetic loop, a random walk over a large
// table, or this kernel without allocation.
//
// A call is timed in the CPU time of its own thread, which leaves out the
// program's GC workers running on others; its allocations are the same
// on every call, so runs take them out of their allocation counts.

const (
	// refNominalMS is the reference speed: every scaled timing reads as
	// on a host where one kernel call takes this much CPU time.
	refNominalMS = 5.0
	// refEvery is how much host time a loop lets pass between kernel
	// calls; a call takes a few ms, so the kernel costs about 5% of a run.
	refEvery = 100 * time.Millisecond
	// refMin is how many calls a run makes before its first op.
	refMin     = 3
	refEvents  = 20000 // events per call
	refPending = 512   // events in the queue
)

type refEvent struct {
	t  float64
	id int
}

type refQueue []*refEvent

func (q refQueue) Len() int           { return len(q) }
func (q refQueue) Less(i, j int) bool { return q[i].t < q[j].t }
func (q refQueue) Swap(i, j int)      { q[i], q[j] = q[j], q[i] }
func (q *refQueue) Push(x any)        { *q = append(*q, x.(*refEvent)) }
func (q *refQueue) Pop() any {
	old := *q
	x := old[len(old)-1]
	*q = old[:len(old)-1]
	return x
}

// refWork is one kernel call. It returns a checksum so the work cannot be
// optimised away.
func refWork() float64 {
	x := uint64(88172645463325252)
	rnd := func() float64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return float64(x>>11) / (1 << 53)
	}
	q := &refQueue{}
	acc := map[int]float64{}
	for i := 0; i < refPending; i++ {
		heap.Push(q, &refEvent{rnd(), i})
	}
	for i := 0; i < refEvents; i++ {
		e := heap.Pop(q).(*refEvent)
		acc[e.id%4096] += e.t
		heap.Push(q, &refEvent{e.t + rnd(), e.id + refPending})
	}
	return acc[7]
}

// refAllocs measures the heap allocations one kernel call makes.
func refAllocs() (mallocs, bytes uint64) {
	refWork()
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	refWork()
	runtime.ReadMemStats(&b)
	return b.Mallocs - a.Mallocs, b.TotalAlloc - a.TotalAlloc
}

// refClock times the kernel through a measured loop.
type refClock struct {
	cpuMS []float64 // thread CPU time of every call
	spent spent     // process time the calls took, to take out of the run
	last  time.Time
	sum   float64
}

func newRefClock() *refClock {
	k := &refClock{}
	for i := 0; i < refMin; i++ {
		k.call()
	}
	return k
}

func (k *refClock) call() {
	runtime.LockOSThread()
	t := now()
	t0 := threadCPUTime()
	k.sum += refWork()
	k.cpuMS = append(k.cpuMS, float64(threadCPUTime()-t0)/1e6)
	k.spent = k.spent.plus(t.spent())
	runtime.UnlockOSThread()
	k.last = time.Now()
}

// tick calls the kernel when refEvery has passed since the last call. A
// nil clock does nothing.
func (k *refClock) tick() {
	if k != nil && time.Since(k.last) >= refEvery {
		k.call()
	}
}

// used is the total time spent in the kernel so far.
func (k *refClock) used() spent {
	if k == nil {
		return spent{}
	}
	return k.spent
}

// scale converts this run's CPU time to reference CPU time.
func (k *refClock) scale() float64 { return refNominalMS / median(k.cpuMS) }
