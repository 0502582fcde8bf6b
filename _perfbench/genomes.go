package main

import (
	"bufio"
	_ "embed"
	"fmt"
	"math"
	"runtime"
	"strconv"
	"strings"
	"time"

	"bbwfsim/internal/core"
	"bbwfsim/internal/genomes"
	"bbwfsim/internal/invariants"
	"bbwfsim/internal/platform"
	"bbwfsim/internal/runner"
	"bbwfsim/internal/workflow"
)

// genomes-sweep: the paper's case-study path (Figs. 13-14). One 903-task
// 1000Genomes simulation at a time on 8 nodes, PrePlaceInputs, retained
// trace, no faults, no adaptation; the seed orders the (platform, staged
// fraction) grid.

var genomesPresets = []string{"cori-private", "cori-striped", "summit"}

const (
	genomesNodes = 8
	genomesSteps = 20 // staged fractions 0, 0.05, ..., 1
	genomesGrid  = 3 * (genomesSteps + 1)
	// genomesChecks is how many ops a run re-simulates after timing for
	// invariants.Check, spread evenly over the ops it made.
	genomesChecks = 4
)

// gridPoint is one (platform, staged fraction) configuration.
type gridPoint struct{ preset, step int }

func (p gridPoint) fraction() float64 { return float64(p.step) / genomesSteps }

func (p gridPoint) String() string {
	return fmt.Sprintf("%s@%.2f", genomesPresets[p.preset], p.fraction())
}

func gridAt(i int) gridPoint { return gridPoint{i / (genomesSteps + 1), i % (genomesSteps + 1)} }

// genomesOps returns the first n ops of the seed's sequence: the grid is
// the deck, so every point is visited once per cycle.
func genomesOps(seed int64, n int) []gridPoint {
	out := make([]gridPoint, n)
	for i, k := range deckOrder(seed, genomesGrid, n) {
		out[i] = gridAt(k)
	}
	return out
}

//go:embed genomes_reference.tsv
var genomesReferenceTSV string

// parseReference reads the shipped makespan table: one "preset step
// makespan" line per grid point, makespans in shortest round-trip form.
func parseReference(tsv string) (map[gridPoint]float64, error) {
	ref := map[gridPoint]float64{}
	sc := bufio.NewScanner(strings.NewReader(tsv))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) == 0 || strings.HasPrefix(f[0], "#") {
			continue
		}
		if len(f) != 3 {
			return nil, fmt.Errorf("reference line %q: want preset, step, makespan", sc.Text())
		}
		pi := -1
		for i, name := range genomesPresets {
			if name == f[0] {
				pi = i
			}
		}
		step, err1 := strconv.Atoi(f[1])
		ms, err2 := strconv.ParseFloat(f[2], 64)
		if pi < 0 || err1 != nil || err2 != nil || step < 0 || step > genomesSteps {
			return nil, fmt.Errorf("reference line %q is malformed", sc.Text())
		}
		ref[gridPoint{pi, step}] = ms
	}
	if len(ref) != genomesGrid {
		return nil, fmt.Errorf("reference has %d points, want %d", len(ref), genomesGrid)
	}
	return ref, nil
}

type genomesEnv struct {
	wf   *workflow.Workflow
	cfgs []platform.Config
	sims []*core.Simulator
	ref  map[gridPoint]float64
}

func genomesOptions(p gridPoint) core.RunOptions {
	return core.RunOptions{PrePlaceInputs: true, StagedFraction: p.fraction()}
}

// setupGenomes builds the workflow, one simulator per platform and the
// reference table, and warms up with one op per platform.
func setupGenomes(tr *tracer) (*genomesEnv, error) {
	e, err := buildGenomesEnv(tr)
	if err != nil {
		return nil, err
	}
	if e.ref, err = parseReference(genomesReferenceTSV); err != nil {
		return nil, err
	}
	for pi := range genomesPresets {
		if _, err := e.run(gridPoint{pi, genomesSteps / 2}); err != nil {
			return nil, err
		}
	}
	return e, nil
}

func buildGenomesEnv(tr *tracer) (*genomesEnv, error) {
	e := &genomesEnv{}
	var err error
	id := tr.begin("build", 0, -1)
	e.wf, err = genomes.New(genomes.Params{})
	tr.end(id)
	if err != nil {
		return nil, err
	}
	presets := platform.Presets(genomesNodes)
	for _, name := range genomesPresets {
		cfg := presets[name]
		id := tr.begin("new_simulator", 0, -1)
		sim, err := core.NewSimulator(cfg)
		tr.end(id)
		if err != nil {
			return nil, err
		}
		e.cfgs = append(e.cfgs, cfg)
		e.sims = append(e.sims, sim)
	}
	return e, nil
}

func (e *genomesEnv) run(p gridPoint) (*core.Result, error) {
	return e.sims[p.preset].Run(e.wf, genomesOptions(p))
}

// check reports whether res is the reference answer for p, bit for bit.
func (e *genomesEnv) check(p gridPoint, res *core.Result) bool {
	return math.Float64bits(res.Makespan) == math.Float64bits(e.ref[p])
}

func runGenomes(seed int64, seconds float64, traced bool) (*report, error) {
	d := time.Duration(seconds * float64(time.Second))
	if traced {
		return traceGenomes(seed, d)
	}
	env, setup, err := timedSetup(setupGenomes, nil)
	if err != nil {
		return nil, err
	}
	seq := newDeckSeq(seed, genomesGrid)
	var ops []gridPoint
	m := startMeter()
	log, run, k := closedLoop(d, func(int) bool {
		p := gridAt(seq.next())
		ops = append(ops, p)
		res, err := env.run(p)
		return err == nil && env.check(p, res)
	})
	mem := m.finish()

	r := newReport()
	// Untimed: re-simulate a spread sample with the retained trace and
	// run the invariant harness on it.
	for k := 0; k < genomesChecks; k++ {
		i := k * len(ops) / genomesChecks
		res, err := env.run(ops[i])
		if err != nil || !env.check(ops[i], res) {
			log.fail(i)
			continue
		}
		if v := invariants.Check(env.cfgs[ops[i].preset], env.wf, res); len(v) > 0 {
			r.note("invariant violations at op %d (%v): %s", i, ops[i], strings.Join(v, "; "))
			log.fail(i)
		}
	}
	r.wrong = log.failed // every failed op here erred or gave a wrong output
	r.setEndToEnd(setup, log, run, mem, k)
	return r, nil
}

func traceGenomes(seed int64, d time.Duration) (*report, error) {
	r := newReport()
	tr := newTracer()
	env, setup, err := timedSetup(setupGenomes, tr)
	if err != nil {
		return nil, err
	}
	// The traced op list is one full grid cycle.
	ops := genomesOps(seed, genomesGrid)
	err = r.tracePasses(d, len(ops), tr, setup, func(i int) (*core.Result, bool, error) {
		res, err := env.run(ops[i])
		return res, err == nil && env.check(ops[i], res), err
	})
	if err != nil {
		return nil, err
	}
	if err := r.setRunnerSpeedup(env); err != nil {
		return nil, err
	}
	r.failed = r.wrong
	return r, r.fillBypassed()
}

// setRunnerSpeedup times the whole grid through runner.Map at jobs = 1
// and jobs = nproc. With one CPU there is nothing to compare; the metric
// then reads 0 and a note says why.
func (r *report) setRunnerSpeedup(env *genomesEnv) error {
	n := runtime.NumCPU()
	if n < 2 {
		r.note("runner.speedup omitted: nproc = 1")
		return nil
	}
	grid := func(jobs int) (time.Duration, error) {
		t := time.Now()
		_, err := runner.Map(jobs, genomesGrid, func(i int) (float64, error) {
			res, err := env.run(gridAt(i))
			if err != nil {
				return 0, err
			}
			return res.Makespan, nil
		})
		return time.Since(t), err
	}
	serial, err := grid(1)
	if err != nil {
		return err
	}
	par, err := grid(n)
	if err != nil {
		return err
	}
	r.set("runner.speedup", serial.Seconds()/par.Seconds(), "ratio")
	r.note("runner.speedup over the %d-point grid at jobs %d vs 1", genomesGrid, n)
	return nil
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}
