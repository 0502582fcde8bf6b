package main

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"time"

	"bbwfsim/internal/adapt"
	"bbwfsim/internal/ckpt"
	"bbwfsim/internal/core"
	"bbwfsim/internal/exec"
	"bbwfsim/internal/faults"
	"bbwfsim/internal/invariants"
	"bbwfsim/internal/placement"
	"bbwfsim/internal/platform"
	"bbwfsim/internal/swarp"
	"bbwfsim/internal/trace"
	"bbwfsim/internal/units"
	"bbwfsim/internal/workflow"
)

// swarp-pressure: adapt-on SWarp (16 pipelines, 4 nodes) with the burst
// buffer squeezed to 0.6x the all-in-BB footprint, AllBB placement with
// BBFallback, the adaptive experiment's adaptation stance, seeded task
// crashes, node failures, BB rejects and degrade windows with retries, and
// checkpoints to the BB. The ops form a fixed deck of (platform, fault
// seed) pairs, half cori-private and half summit, each with its own fault
// seed; the workload seed orders the deck, so every run does the same work
// and only the order differs. Counting trace.

var swarpPresets = []string{"cori-private", "summit"}

const (
	swarpPipelines = 16
	swarpNodes     = 4
	swarpPressure  = 0.6
	// swarpDeck is how many ops the deck holds; the traced run's op list
	// is one cycle of it.
	swarpDeck = 48
	// swarpCheckEvery picks the ops a run re-simulates after timing with
	// the retained trace: every op whose index is a multiple of it.
	swarpCheckEvery = 32
)

// swarpAdapt is the adaptive experiment's stance: spill at 70% occupancy
// down to 35%, replicate sole replicas after faults, route allocations
// away from degraded tiers.
var swarpAdapt = adapt.Policy{
	SpillHighWater:   0.7,
	SpillLowWater:    0.35,
	ReplicateOnFault: true,
	DegradedFallback: true,
}

// swarpOp is one simulation: a platform and the op's fault seed.
type swarpOp struct {
	preset    int
	faultSeed int64
}

// swarpDeckOp is op k of the deck.
func swarpDeckOp(k int) swarpOp {
	return swarpOp{preset: k % len(swarpPresets), faultSeed: int64(splitmix(uint64(k)))}
}

// swarpOps returns the first n ops of the seed's sequence.
func swarpOps(seed int64, n int) []swarpOp {
	out := make([]swarpOp, n)
	for i, k := range deckOrder(seed, swarpDeck, n) {
		out[i] = swarpDeckOp(k)
	}
	return out
}

// splitmix is the SplitMix64 finaliser: a cheap bijective mixer that
// turns consecutive integers into unrelated seeds.
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

type swarpEnv struct {
	wf       *workflow.Workflow
	place    *placement.Set
	cfgs     []platform.Config // squeezed
	sims     []*core.Simulator
	baseline []float64 // fault-free all-in-BB makespan on the unsqueezed preset
}

// setupSwarp builds the workflow, measures each platform's fault-free
// baseline (which sets the fault rates), squeezes the burst buffers and
// warms up with one op per platform.
func setupSwarp(tr *tracer) (*swarpEnv, error) {
	e := &swarpEnv{}
	var err error
	id := tr.begin("build", 0, -1)
	e.wf, err = swarp.New(swarp.Params{Pipelines: swarpPipelines})
	tr.end(id)
	if err != nil {
		return nil, err
	}
	e.place = placement.AllBB(e.wf)
	total := units.Bytes(float64(e.place.BBBytes(e.wf)) * swarpPressure)
	presets := platform.Presets(swarpNodes)
	for _, name := range swarpPresets {
		cfg := presets[name]
		id := tr.begin("new_simulator", 0, -1)
		base, err := core.NewSimulator(cfg)
		tr.end(id)
		if err != nil {
			return nil, err
		}
		res, err := base.Run(e.wf, core.RunOptions{Placement: e.place, TraceMode: trace.Counting})
		if err != nil {
			return nil, fmt.Errorf("%s baseline: %w", name, err)
		}
		e.baseline = append(e.baseline, res.Makespan)
		// Node-local burst buffers enforce capacity per node.
		if cfg.BBKind == platform.BBOnNode {
			cfg.BB.Capacity = total / swarpNodes
		} else {
			cfg.BB.Capacity = total
		}
		sim, err := core.NewSimulator(cfg)
		if err != nil {
			return nil, err
		}
		e.cfgs = append(e.cfgs, cfg)
		e.sims = append(e.sims, sim)
	}
	for pi := range swarpPresets {
		if _, err := e.run(swarpOp{pi, int64(pi)}, trace.Counting, swarpAdapt); err != nil {
			return nil, err
		}
	}
	return e, nil
}

// options builds op's run options: fault campaign rates scale with the
// platform's baseline makespan, as in the resilience experiments.
func (e *swarpEnv) options(op swarpOp, mode trace.Mode, pol adapt.Policy) (core.RunOptions, error) {
	base := e.baseline[op.preset]
	inj, err := faults.New(faults.Config{
		Seed:        op.faultSeed,
		TaskCrash:   &faults.CrashProcess{Arrival: faults.Exp(base / 8), Budget: 16},
		NodeFailure: &faults.NodeProcess{Arrival: faults.Exp(base), MTTR: base / 10, Budget: 2},
		BBReject:    &faults.RejectPolicy{Prob: 0.05},
		BBDegrade:   &faults.DegradeProcess{Arrival: faults.Exp(base / 2), Duration: base / 20, Factor: 0.3},
	})
	if err != nil {
		return core.RunOptions{}, err
	}
	return core.RunOptions{
		Placement:  e.place,
		BBFallback: true,
		Adapt:      pol,
		Faults:     inj,
		Retry: exec.RetryPolicy{
			MaxRetries: 60, Backoff: exec.BackoffExponential,
			BaseDelay: 2, MaxDelay: 120, Jitter: 0.25, Seed: op.faultSeed,
		},
		Checkpoint: ckpt.Policy{Interval: base / 20, Target: ckpt.TargetBB, MinSize: 256 * units.MiB},
		TraceMode:  mode,
	}, nil
}

func (e *swarpEnv) run(op swarpOp, mode trace.Mode, pol adapt.Policy) (*core.Result, error) {
	opts, err := e.options(op, mode, pol)
	if err != nil {
		return nil, err
	}
	return e.sims[op.preset].Run(e.wf, opts)
}

// swarpSample is a timed op kept for the post-run check.
type swarpSample struct {
	index    int
	op       swarpOp
	makespan float64
	metrics  []byte
}

// verify re-simulates a sampled op with the retained trace: the makespan
// and metrics snapshot must match the counting-mode run bit for bit, and
// the invariant harness must find nothing.
func (e *swarpEnv) verify(s swarpSample) error {
	res, err := e.run(s.op, trace.Retained, swarpAdapt)
	if err != nil {
		return err
	}
	if math.Float64bits(res.Makespan) != math.Float64bits(s.makespan) {
		return fmt.Errorf("retained makespan %v, counting %v", res.Makespan, s.makespan)
	}
	snap, err := res.Metrics.JSON()
	if err != nil {
		return err
	}
	if !bytes.Equal(snap, s.metrics) {
		return fmt.Errorf("retained and counting metrics snapshots differ")
	}
	if v := invariants.Check(e.cfgs[s.op.preset], e.wf, res); len(v) > 0 {
		return fmt.Errorf("invariant violations: %s", strings.Join(v, "; "))
	}
	return nil
}

func runSwarp(seed int64, seconds float64, traced bool) (*report, error) {
	d := time.Duration(seconds * float64(time.Second))
	if traced {
		return traceSwarp(seed, d)
	}
	env, setup, err := timedSetup(setupSwarp, nil)
	if err != nil {
		return nil, err
	}
	seq := newDeckSeq(seed, swarpDeck)
	var samples []swarpSample
	m := startMeter()
	log, run, k := closedLoop(d, func(i int) bool {
		op := swarpDeckOp(seq.next())
		res, err := env.run(op, trace.Counting, swarpAdapt)
		if err != nil {
			return false
		}
		if i%swarpCheckEvery == 0 {
			snap, err := res.Metrics.JSON()
			if err != nil {
				return false
			}
			samples = append(samples, swarpSample{i, op, res.Makespan, snap})
		}
		return true
	})
	mem := m.finish()

	r := newReport()
	for _, s := range samples {
		if err := env.verify(s); err != nil {
			r.note("op %d: %v", s.index, err)
			log.fail(s.index)
		}
	}
	r.wrong = log.failed
	r.setEndToEnd(setup, log, run, mem, k)
	return r, nil
}

func traceSwarp(seed int64, d time.Duration) (*report, error) {
	r := newReport()
	tr := newTracer()
	env, setup, err := timedSetup(setupSwarp, tr)
	if err != nil {
		return nil, err
	}
	ops := swarpOps(seed, swarpDeck)
	err = r.tracePasses(d, len(ops), tr, setup, func(i int) (*core.Result, bool, error) {
		res, err := env.run(ops[i], trace.Counting, swarpAdapt)
		return res, err == nil, err
	})
	if err != nil {
		return nil, err
	}
	ratio, err := env.adaptOverhead(ops)
	if err != nil {
		return nil, err
	}
	r.set("adapt.overhead_ratio", ratio, "ratio")
	for i := 0; i < len(ops); i += swarpCheckEvery {
		op := ops[i]
		res, err := env.run(op, trace.Counting, swarpAdapt)
		if err != nil {
			return nil, err
		}
		snap, err := res.Metrics.JSON()
		if err != nil {
			return nil, err
		}
		if err := env.verify(swarpSample{i, op, res.Makespan, snap}); err != nil {
			r.note("op %d: %v", i, err)
			r.wrong++
		}
	}
	r.failed = r.wrong
	return r, r.fillBypassed()
}

// adaptOverheadPairs is how many adapt-on/adapt-off pass pairs the
// overhead ratio takes the median of.
const adaptOverheadPairs = 3

// adaptOverhead compares host ns per kernel event on the traced op list
// with the adaptation policy on and with adapt.Policy{}, passes
// alternating.
func (e *swarpEnv) adaptOverhead(ops []swarpOp) (float64, error) {
	pass := func(pol adapt.Policy) (float64, error) {
		var events uint64
		t := time.Now()
		for _, op := range ops {
			res, err := e.run(op, trace.Counting, pol)
			if err != nil {
				return 0, err
			}
			events += res.Events
		}
		return float64(time.Since(t).Nanoseconds()) / float64(events), nil
	}
	var ratios []float64
	for k := 0; k < adaptOverheadPairs; k++ {
		on, err := pass(swarpAdapt)
		if err != nil {
			return 0, err
		}
		off, err := pass(adapt.Policy{})
		if err != nil {
			return 0, err
		}
		ratios = append(ratios, on/off)
	}
	return median(ratios), nil
}
