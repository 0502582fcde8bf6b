package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"
)

// percentile returns the nearest-rank q-quantile (0 < q <= 1) of xs, which
// it sorts in place. A failed op is recorded as +Inf, so it misses every
// latency limit. An empty slice yields 0.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	return xs[i]
}

func median(xs []float64) float64 { return percentile(append([]float64(nil), xs...), 0.5) }

// heapSampleEvery is the heap sampling period: short against a
// collection cycle, cheap because runtime/metrics reads do not stop the
// world.
const heapSampleEvery = 2 * time.Millisecond

// meter measures the heap over the timed part of a run: allocation deltas
// from runtime.MemStats, and HeapInuse (heap objects plus unused heap
// spans) sampled from runtime/metrics on its own goroutine. Runs report
// the samples' 99th percentile rather than their maximum: the peak less
// the few samples taken while a collection ran late, which move with the
// host's speed.
type meter struct {
	start runtime.MemStats
	stop  chan struct{}
	done  chan struct{}
	heap  []float64 // written by the sampler, read after done closes
}

// memDelta is what a meter saw between start and finish.
type memDelta struct {
	mallocs, bytes uint64
	heap           []float64 // HeapInuse samples, bytes
	gcCycles       uint32
	gcPause        time.Duration
}

func startMeter() *meter {
	m := &meter{stop: make(chan struct{}), done: make(chan struct{})}
	runtime.ReadMemStats(&m.start)
	go m.sample()
	return m
}

func (m *meter) sample() {
	defer close(m.done)
	samples := []metrics.Sample{
		{Name: "/memory/classes/heap/objects:bytes"},
		{Name: "/memory/classes/heap/unused:bytes"},
	}
	tick := time.NewTicker(heapSampleEvery)
	defer tick.Stop()
	for {
		metrics.Read(samples)
		m.heap = append(m.heap, float64(samples[0].Value.Uint64()+samples[1].Value.Uint64()))
		select {
		case <-m.stop:
			return
		case <-tick.C:
		}
	}
}

// finish stops the sampler, waits for it, and returns the deltas.
func (m *meter) finish() memDelta {
	close(m.stop)
	<-m.done
	var end runtime.MemStats
	runtime.ReadMemStats(&end)
	return memDelta{
		mallocs:  end.Mallocs - m.start.Mallocs,
		bytes:    end.TotalAlloc - m.start.TotalAlloc,
		heap:     m.heap,
		gcCycles: end.NumGC - m.start.NumGC,
		gcPause:  time.Duration(end.PauseTotalNs - m.start.PauseTotalNs),
	}
}

// stamp is a point in host time and in the process's CPU time.
type stamp struct {
	wall time.Time
	cpu  time.Duration
}

func now() stamp { return stamp{time.Now(), cpuTime()} }

// spent is host time and process CPU time between two stamps.
type spent struct{ wall, cpu time.Duration }

func (s stamp) spent() spent { return spent{time.Since(s.wall), cpuTime() - s.cpu} }

func (s spent) less(o spent) spent { return spent{s.wall - o.wall, s.cpu - o.cpu} }

func (s spent) plus(o spent) spent { return spent{s.wall + o.wall, s.cpu + o.cpu} }

func cpuSeconds(xs []spent) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x.cpu.Seconds()
	}
	return out
}

func wallSeconds(xs []spent) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x.wall.Seconds()
	}
	return out
}

// opLog collects each op's host latency and the process CPU time it took;
// a failed or wrong op is +Inf in both.
type opLog struct {
	wallMS, cpuMS []float64
	failed        int
}

func (l *opLog) add(s spent, ok bool) {
	wall, cpu := float64(s.wall)/1e6, float64(s.cpu)/1e6
	if !ok {
		wall, cpu = math.Inf(1), math.Inf(1)
		l.failed++
	}
	l.wallMS = append(l.wallMS, wall)
	l.cpuMS = append(l.cpuMS, cpu)
}

// fail re-marks op i as failed after a post-run output check.
func (l *opLog) fail(i int) {
	if !math.IsInf(l.cpuMS[i], 1) {
		l.wallMS[i], l.cpuMS[i] = math.Inf(1), math.Inf(1)
		l.failed++
	}
}

// setEndToEnd fills the end-to-end metrics every workload reports.
//
// The timings are process CPU time scaled to the reference speed (see
// refkernel.go) by the kernel calls k made through the run: CPU time,
// because the benchmark shares the cores of a host with other processes
// and an op's CPU time does not count the time it waits for a core;
// scaled, because the host's speed itself moves. Raw CPU and host times
// are printed as notes.
//
// fail_share can be 0, and a metric that reads 0 has no relative spread,
// so the JSON line carries its complement ok_share (verified ops ÷
// attempted); fail_share itself is printed with its base as a note.
func (r *report) setEndToEnd(setup []spent, ops *opLog, run spent, mem memDelta, k *refClock) {
	n := len(ops.cpuMS)
	r.attempted, r.failed = n, ops.failed
	ok := n - ops.failed
	cpu := append([]float64(nil), ops.cpuMS...)
	wall := append([]float64(nil), ops.wallMS...)
	sc := k.scale()
	refM, refB := refAllocs()
	calls := uint64(len(k.cpuMS))
	r.set("setup_s", median(cpuSeconds(setup))*sc, "s")
	r.set("ref_ops_per_cpu_s", float64(ok)/(run.cpu.Seconds()*sc), "ops/s")
	r.set("ref_cpu_ms_p50", percentile(cpu, 0.5)*sc, "ms")
	r.set("ref_cpu_ms_p90", percentile(cpu, 0.9)*sc, "ms")
	r.set("ok_share", float64(ok)/float64(n), "ratio")
	r.set("allocs_per_op", float64(mem.mallocs-calls*refM)/float64(n), "count")
	r.set("alloc_kib_per_op", float64(mem.bytes-calls*refB)/1024/float64(n), "KiB")
	r.set("heap_mib_p99", percentile(mem.heap, 0.99)/(1<<20), "MiB")
	beyond := n - int(math.Ceil(0.9*float64(n)))
	r.note("reference kernel: %d calls, median %.4g ms CPU, scale %.4g", calls, median(k.cpuMS), sc)
	r.note("setup CPU s %.4g, host s %.4g", cpuSeconds(setup), wallSeconds(setup))
	r.note("unscaled CPU time: %.6g ops/s, p50 %.6g ms, p90 %.6g ms",
		float64(ok)/run.cpu.Seconds(), percentile(cpu, 0.5), percentile(cpu, 0.9))
	r.note("host time: %.6g ops/s, latency p50 %.6g ms, p90 %.6g ms; %.4g CPU s per host s",
		float64(ok)/run.wall.Seconds(), percentile(wall, 0.5), percentile(wall, 0.9), run.cpu.Seconds()/run.wall.Seconds())
	r.note("fail_share %.6g (%d of %d ops failed or wrong)", float64(ops.failed)/float64(n), ops.failed, n)
	r.note("latency samples %d, %d beyond p90; heap samples %d", n, beyond, len(mem.heap))
}

// setGC fills the runtime per-layer metrics.
func (r *report) setGC(mem memDelta, ops int) {
	r.set("gc.cycles_per_op", float64(mem.gcCycles)/float64(ops), "count")
	r.set("gc.pause_ms_per_op", float64(mem.gcPause)/1e6/float64(ops), "ms")
}
