package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime/pprof"
	"time"

	"bbwfsim/internal/core"
	"bbwfsim/internal/metrics"
)

// closedLoop runs op(0), op(1), ... back to back until d of host time has
// elapsed and logs each op's host and CPU time, with the reference kernel
// timed between ops. op reports whether its output checked out. The
// returned run time leaves the kernel's out.
func closedLoop(d time.Duration, op func(i int) bool) (*opLog, spent, *refClock) {
	log := &opLog{}
	k := newRefClock()
	start, before := now(), k.used()
	for i := 0; time.Since(start.wall) < d; i++ {
		k.tick()
		t := now()
		ok := op(i)
		log.add(t.spent(), ok)
	}
	return log, start.spent().less(k.used().less(before)), k
}

// timedSetup runs setup setupRepeats times and returns the last result
// with the time every repeat took.
func timedSetup[T any](setup func(tr *tracer) (T, error), tr *tracer) (T, []spent, error) {
	var (
		env   T
		times []spent
	)
	for i := 0; i < setupRepeats; i++ {
		t := now()
		var err error
		if env, err = setup(tr); err != nil {
			return env, nil, err
		}
		times = append(times, t.spent())
		tr = nil // spans of one set-up are enough
	}
	return env, times, nil
}

// tracePasses is the traced run of a simulation workload: it alternates
// an untraced and a traced pass over the same fixed list of n ops until d
// has elapsed (at least one pair), and reports the per-layer metrics the
// two simulation workloads share. Only the traced passes run under the
// CPU profiler, one profile each, so trace_overhead_share prices spans
// and profiling together. op runs op i and reports whether its output
// checked out. The op list is fixed so every work count repeats exactly
// for a seed; alternating the passes makes trace_overhead_share compare
// like with like.
func (r *report) tracePasses(d time.Duration, n int, tr *tracer, setup []spent,
	op func(i int) (*core.Result, bool, error)) error {
	work := &workCounts{ops: n}
	var untraced, traced []float64 // per-pass throughput, ops per CPU second
	var profiles [][]byte
	// pass runs the op list once, with spans when ptr is non-nil, and
	// returns its throughput.
	pass := func(ptr *tracer) (float64, error) {
		t := now()
		for i := 0; i < n; i++ {
			id := ptr.begin("simulate", 0, len(traced)*n+i)
			res, ok, err := op(i)
			ptr.end(id)
			if err != nil {
				return 0, err
			}
			if !ok {
				r.wrong++
			}
			if ptr != nil && len(traced) == 0 {
				work.addResult(res)
			}
		}
		return float64(n) / t.spent().cpu.Seconds(), nil
	}
	profiled := func() (float64, []byte, error) {
		var prof bytes.Buffer
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return 0, nil, err
		}
		tput, err := pass(tr)
		pprof.StopCPUProfile()
		return tput, prof.Bytes(), err
	}
	m := startMeter()
	start := time.Now()
	for len(traced) == 0 || time.Since(start) < d {
		tput, err := pass(nil)
		if err != nil {
			m.finish()
			return err
		}
		untraced = append(untraced, tput)
		tput, prof, err := profiled()
		if err != nil {
			m.finish()
			return err
		}
		traced = append(traced, tput)
		profiles = append(profiles, prof)
	}
	mem := m.finish()

	passes := float64(len(traced))
	r.tracer = tr
	if err := r.setCPUShares(profiles...); err != nil {
		return err
	}
	r.setWork(work, sum(tr.durations("simulate"))/passes)
	r.setFlowCost(work.recomputes * passes)
	r.set("span.build_ms_p50", tr.p50("build"), "ms")
	r.set("span.simulate_ms_p50", tr.p50("simulate"), "ms")
	r.set("trace_overhead_share", 1-median(traced)/median(untraced), "ratio")
	r.attempted = 2 * len(traced) * n
	r.setGC(mem, r.attempted)
	r.note("setup CPU s %.4g", cpuSeconds(setup))
	return nil
}

// deckSeq is the seeded op order of a closed-loop workload over a fixed
// deck of ops: one fresh permutation of the whole deck per cycle, so every
// run of any seed does the same ops equally often and only the order
// differs.
type deckSeq struct {
	rng  *rand.Rand
	size int
	perm []int
}

func newDeckSeq(seed int64, size int) *deckSeq {
	return &deckSeq{rng: rand.New(rand.NewSource(seed)), size: size}
}

// next returns the deck index of the next op.
func (s *deckSeq) next() int {
	if len(s.perm) == 0 {
		s.perm = s.rng.Perm(s.size)
	}
	k := s.perm[0]
	s.perm = s.perm[1:]
	return k
}

// deckOrder returns the first n deck indices of the seed's sequence.
func deckOrder(seed int64, size, n int) []int {
	s := newDeckSeq(seed, size)
	out := make([]int, n)
	for i := range out {
		out[i] = s.next()
	}
	return out
}

// workCounts accumulates the deterministic work counters of a set of ops,
// read from each result's kernel counters, fault tallies and metrics
// snapshot.
type workCounts struct {
	ops                               int
	events                            uint64
	peakPending                       int
	recomputes, freezeRounds, flows   float64
	storageOps, storageBytes, tasks   float64
	spills, replications, retries     int
	fallbacks, ckptCommits, schedJobs int
}

func counterSum(s *metrics.Snapshot, family string) float64 {
	var v float64
	for _, c := range s.Counters {
		if c.Family == family {
			v += c.Value
		}
	}
	return v
}

// add folds one simulation's outputs in; ops counts separately, because a
// cache hit is an op that simulates nothing.
func (w *workCounts) add(events uint64, peak int, f core.FaultStats, sched *core.SchedStats, m *metrics.Snapshot) {
	w.events += events
	if peak > w.peakPending {
		w.peakPending = peak
	}
	w.spills += f.AdaptSpills
	w.replications += f.AdaptReplications
	w.retries += f.Retries
	w.fallbacks += f.Fallbacks
	w.ckptCommits += f.CkptCommits
	if sched != nil {
		w.schedJobs += sched.Submitted
	}
	if m != nil {
		w.recomputes += counterSum(m, metrics.FlowRecomputesTotal)
		w.freezeRounds += counterSum(m, metrics.FlowFreezeRoundsTotal)
		w.flows += counterSum(m, metrics.FlowFlowsTotal)
		w.storageOps += counterSum(m, metrics.StorageOpsTotal)
		w.storageBytes += counterSum(m, metrics.StorageBytesTotal)
		w.tasks += counterSum(m, metrics.TasksCompletedTotal)
	}
}

func (w *workCounts) addResult(res *core.Result) {
	w.add(res.Events, res.PeakPending, res.Faults, res.Sched, res.Metrics)
}

// setWork reports the per-op work counts and the host time per kernel
// event, from simulateMS, the summed simulate-span time over the same ops.
func (r *report) setWork(w *workCounts, simulateMS float64) {
	n := float64(w.ops)
	r.set("sim.events_per_op", float64(w.events)/n, "count")
	r.set("sim.peak_pending", float64(w.peakPending), "count")
	r.set("flow.recomputes_per_op", w.recomputes/n, "count")
	r.set("flow.freeze_rounds_per_op", w.freezeRounds/n, "count")
	r.set("flow.flows_per_op", w.flows/n, "count")
	r.set("storage.ops_per_op", w.storageOps/n, "count")
	r.set("storage.gib_per_op", w.storageBytes/(1<<30)/n, "GiB")
	r.set("exec.tasks_per_op", w.tasks/n, "count")
	r.set("adapt.spills_per_op", float64(w.spills)/n, "count")
	r.set("adapt.replications_per_op", float64(w.replications)/n, "count")
	r.set("faults.retries_per_op", float64(w.retries)/n, "count")
	r.set("faults.fallbacks_per_op", float64(w.fallbacks)/n, "count")
	r.set("ckpt.commits_per_op", float64(w.ckptCommits)/n, "count")
	r.set("sched.jobs_per_op", float64(w.schedJobs)/n, "count")
	if w.events > 0 {
		r.set("sim.ns_per_event", simulateMS*1e6/float64(w.events), "ns")
	}
}

// perLayer lists every per-layer metric with its unit. A traced run
// reports all of them; a metric of a layer the workload bypasses reads 0.
var perLayer = []struct{ name, unit string }{
	{"sim.events_per_op", "count"}, {"sim.peak_pending", "count"}, {"sim.ns_per_event", "ns"},
	{"flow.recomputes_per_op", "count"}, {"flow.freeze_rounds_per_op", "count"},
	{"flow.flows_per_op", "count"}, {"flow.ns_per_recompute", "ns"},
	{"storage.ops_per_op", "count"}, {"storage.gib_per_op", "GiB"},
	{"exec.tasks_per_op", "count"}, {"adapt.spills_per_op", "count"},
	{"adapt.replications_per_op", "count"}, {"adapt.overhead_ratio", "ratio"},
	{"faults.retries_per_op", "count"}, {"faults.fallbacks_per_op", "count"},
	{"ckpt.commits_per_op", "count"},
	{"span.build_ms_p50", "ms"}, {"span.simulate_ms_p50", "ms"},
	{"core.encode_us_p50", "us"}, {"core.result_kib", "KiB"},
	{"sched.jobs_per_op", "count"}, {"service.execute_ms_p50.sched", "ms"},
	{"service.parse_us_p50", "us"}, {"service.hash_us_p50", "us"},
	{"service.cache_hit_ratio", "ratio"}, {"service.sheds", "count"},
	{"service.execute_ms_p50.genomes", "ms"}, {"service.execute_ms_p50.swarp", "ms"},
	{"service.execute_ms_p50.gen", "ms"}, {"service.wait_ms_p50", "ms"},
	{"runner.speedup", "ratio"},
	{"gc.cycles_per_op", "count"}, {"gc.pause_ms_per_op", "ms"},
	{"trace_overhead_share", "ratio"},
}

// fillBypassed reports 0 for every per-layer metric the workload did not
// set, and checks the units of the ones it did.
func (r *report) fillBypassed() error {
	for _, m := range perLayer {
		got, ok := r.metrics[m.name]
		if !ok {
			r.set(m.name, 0, m.unit)
		} else if got.Unit != m.unit {
			return fmt.Errorf("metric %s reported in %s, want %s", m.name, got.Unit, m.unit)
		}
	}
	return nil
}
