package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"net/http"
	"runtime/pprof"
	"time"

	"bbwfsim/internal/adapt"
	"bbwfsim/internal/ckpt"
	"bbwfsim/internal/core"
	"bbwfsim/internal/exec"
	"bbwfsim/internal/faults"
	"bbwfsim/internal/genomes"
	"bbwfsim/internal/platform"
	"bbwfsim/internal/sched"
	"bbwfsim/internal/service"
	"bbwfsim/internal/swarp"
	"bbwfsim/internal/trace"
	"bbwfsim/internal/units"
	"bbwfsim/internal/workflow"
	"bbwfsim/internal/workloads"
)

// The traced bbsimd-mix run sends a fixed list, the first mixTraceOps
// requests of the stream, twice in the closed loop, to a fresh server each
// time: untraced, then with an "http" span per request under a CPU
// profile. It then replays the traced
// pass's request log offline, in order, through the service's public
// functions (ParseRequest, CanonicalHash, Cache.Get, Execute) to split
// each request into stages, and re-evaluates a sample of cold requests
// layer by layer (workflow build, NewSimulator, Simulator.Run or sched.Run,
// EncodeResult) to split Execute itself.

// mirrorPerKind is how many cold requests of each kind the layer-by-layer
// re-evaluation samples.
const mirrorPerKind = 12

// mixTraceOps is how many requests each pass of the traced run sends.
const mixTraceOps = 1200

// replayed is what the offline replay learned about the request log.
type replayed struct {
	ref       map[string][]byte    // canonical hash → result document
	execMS    []float64            // per request: Execute time, 0 for hits
	hit       []bool               // per request: every point was cached
	execByKey map[string][]float64 // Execute times by workflow kind or "sched"
	resultKiB []float64            // sizes of the documents Execute made
	work      workCounts
}

// kindOf names a request's execute bucket.
func kindOf(r *service.Request) string {
	if r.Sched != nil {
		return "sched"
	}
	return r.Workflow.Kind
}

// replay walks the log in order through an offline cache the size of the
// server's, recording parse, hash, cache_get and execute spans.
func replay(reqs []mixReq, tr *tracer) (*replayed, error) {
	out := &replayed{
		ref:       map[string][]byte{},
		execMS:    make([]float64, len(reqs)),
		hit:       make([]bool, len(reqs)),
		execByKey: map[string][]float64{},
		work:      workCounts{ops: len(reqs)},
	}
	cache := service.NewCache(mixCacheEntries, nil)
	for i, q := range reqs {
		root := tr.begin("request", 0, i)
		id := tr.begin("parse", root, i)
		points, err := q.points()
		tr.end(id)
		if err != nil {
			return nil, err
		}
		out.hit[i] = true
		for _, p := range points {
			id := tr.begin("hash", root, i)
			h, err := p.CanonicalHash()
			tr.end(id)
			if err != nil {
				return nil, err
			}
			id = tr.begin("cache_get", root, i)
			_, ok := cache.Get(h)
			tr.end(id)
			if ok {
				continue
			}
			out.hit[i] = false
			id = tr.begin("execute", root, i)
			data, err := service.Execute(p)
			tr.end(id)
			if err != nil {
				return nil, fmt.Errorf("request %d: %w", i, err)
			}
			ms := tr.spans[id-1].ms()
			out.execMS[i] += ms
			out.execByKey[kindOf(p)] = append(out.execByKey[kindOf(p)], ms)
			out.resultKiB = append(out.resultKiB, float64(len(data))/1024)
			if _, _, err := cache.GetOrFill(context.Background(), h, func() ([]byte, error) { return data, nil }); err != nil {
				return nil, err
			}
			out.ref[h] = data
			doc, err := core.DecodeResult(data)
			if err != nil {
				return nil, err
			}
			out.work.add(doc.Events, doc.PeakPending, doc.Faults, doc.Sched, doc.Metrics)
		}
		tr.end(root)
	}
	return out, nil
}

// mirror evaluates a request the way service.Execute does, one layer call
// at a time with a span around each, and returns the result document and
// the kernel events it took. Only the request shapes the stream's
// genomes, swarp, gen and sched slots produce are covered; the caller
// checks the bytes against Execute.
func mirror(req *service.Request, tr *tracer, parent, op int) ([]byte, uint64, error) {
	n := req.Normalized()
	cfg, ok := platform.Presets(n.Platform.Nodes)[n.Platform.Preset]
	if !ok {
		return nil, 0, fmt.Errorf("unknown preset %q", n.Platform.Preset)
	}
	if n.Sched != nil {
		cluster := sched.ClusterFromPlatform(cfg)
		id := tr.begin("build", parent, op)
		jobs, err := workloads.Campaign(workloads.CampaignSpec{
			Jobs: n.Sched.Jobs, Seed: n.Seed, MaxNodes: min(16, cluster.Nodes),
		})
		tr.end(id)
		if err != nil {
			return nil, 0, err
		}
		id = tr.begin("simulate", parent, op)
		sres, err := sched.Run(sched.Config{Cluster: cluster, Policy: n.Sched.Policy, Jobs: jobs})
		tr.end(id)
		if err != nil {
			return nil, 0, err
		}
		res := sres.Core()
		id = tr.begin("encode", parent, op)
		b, err := core.EncodeResult(res)
		tr.end(id)
		return b, res.Events, err
	}

	var wf *workflow.Workflow
	var err error
	id := tr.begin("build", parent, op)
	switch w := n.Workflow; w.Kind {
	case service.KindGenomes:
		wf, err = genomes.New(genomes.Params{Chromosomes: w.Chromosomes})
	case service.KindSWarp:
		wf, err = swarp.New(swarp.Params{Pipelines: w.Pipelines})
	case service.KindGen:
		wf, err = workloads.Scale(workloads.ScaleSpec{Topology: w.Topology, Tasks: w.Tasks, Width: w.Width, Seed: n.Seed})
	default:
		err = fmt.Errorf("mirror: workflow kind %q", w.Kind)
	}
	tr.end(id)
	if err != nil {
		return nil, 0, err
	}
	id = tr.begin("new_simulator", parent, op)
	sim, err := core.NewSimulator(cfg)
	tr.end(id)
	if err != nil {
		return nil, 0, err
	}
	opts := core.RunOptions{
		StagedFraction:    n.Run.StagedFraction,
		IntermediatesToBB: n.Run.IntermediatesToBB,
		PrePlaceInputs:    n.Run.PrePlaceInputs,
		BBFallback:        n.Run.BBFallback,
		TraceMode:         trace.Counting,
	}
	if c := n.Ckpt; c != nil {
		opts.Checkpoint = ckpt.Policy{Interval: c.IntervalSeconds, Target: ckpt.Target(c.Tier),
			Drain: c.Drain, DrainDelay: c.DrainDelaySeconds, MinSize: units.Bytes(c.MinSizeMiB * float64(units.MiB))}
	}
	if a := n.Adapt; a != nil {
		opts.Adapt = adapt.Policy{SpillHighWater: a.SpillHighWater, SpillLowWater: a.SpillLowWater,
			ReplicateOnFault: a.ReplicateOnFault, ReplicationBudget: a.ReplicationBudget, DegradedFallback: a.DegradedFallback}
	}
	if f := n.Faults; f != nil {
		fc := faults.Config{Seed: n.Seed}
		if f.CrashMeanSeconds > 0 {
			fc.TaskCrash = &faults.CrashProcess{Arrival: faults.Exp(f.CrashMeanSeconds), Budget: f.CrashBudget}
		}
		if f.NodeFailMeanSeconds > 0 {
			fc.NodeFailure = &faults.NodeProcess{Arrival: faults.Exp(f.NodeFailMeanSeconds), MTTR: f.NodeMTTRSeconds, Budget: f.NodeFailBudget}
		}
		if f.BBRejectProb > 0 {
			fc.BBReject = &faults.RejectPolicy{Prob: f.BBRejectProb}
		}
		if opts.Faults, err = faults.New(fc); err != nil {
			return nil, 0, err
		}
		opts.Retry = exec.RetryPolicy{MaxRetries: f.MaxRetries}
	}
	id = tr.begin("simulate", parent, op)
	res, err := sim.Run(wf, opts)
	tr.end(id)
	if err != nil {
		return nil, 0, err
	}
	id = tr.begin("encode", parent, op)
	b, err := core.EncodeResult(res)
	tr.end(id)
	return b, res.Events, err
}

func traceMix(seed int64) (*report, error) {
	r := newReport()
	reqs, err := mixRequests(seed, mixTraceOps)
	if err != nil {
		return nil, err
	}
	m, setup, err := setupMix()
	if err != nil {
		return nil, err
	}
	forever := time.Duration(math.MaxInt64)
	_, plain, plainRun, err := m.closedLoop(forever, fromList(reqs), nil, nil)
	if errClose := m.close(); err == nil {
		err = errClose
	}
	if err != nil {
		return nil, err
	}

	if m, err = startMix(); err != nil {
		return nil, err
	}
	tr := newTracer()
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		m.close()
		return nil, err
	}
	meter := startMeter()
	_, traced, tracedRun, err := m.closedLoop(forever, fromList(reqs), nil, tr)
	mem := meter.finish()
	pprof.StopCPUProfile()
	stats := m.srv.Stats()
	if errClose := m.close(); err == nil {
		err = errClose
	}
	if err != nil {
		return nil, err
	}

	// The replay's spans go to their own tracer (op IDs are request
	// indices in both) and are merged after the HTTP spans.
	rtr := newTracer()
	rep, err := replay(reqs, rtr)
	if err != nil {
		return nil, err
	}
	plainLog := judge(reqs, plain, rep.ref, r)
	tracedLog := judge(reqs, traced, rep.ref, r)

	mirrored := map[string]int{}
	var mirrorEvents uint64
	for i, q := range reqs {
		if q.replayOf >= 0 || q.path != "/v1/run" || q.kind == "small" || mirrored[q.kind] >= mirrorPerKind {
			continue
		}
		mirrored[q.kind]++
		points, err := q.points()
		if err != nil {
			return nil, err
		}
		root := rtr.begin("mirror", 0, i)
		b, events, err := mirror(points[0], rtr, root, i)
		rtr.end(root)
		if err != nil {
			return nil, err
		}
		mirrorEvents += events
		h, err := points[0].CanonicalHash()
		if err != nil {
			return nil, err
		}
		if !bytes.Equal(b, rep.ref[h]) {
			r.note("request %d (%s): layer-by-layer evaluation differs from Execute", i, q.kind)
			r.wrong++
		}
	}

	if err := r.setCPUShares(prof.Bytes()); err != nil {
		return nil, err
	}
	r.setWork(&rep.work, 0)
	if mirrorEvents > 0 {
		r.set("sim.ns_per_event", sum(rtr.durations("simulate"))*1e6/float64(mirrorEvents), "ns")
	}
	r.setFlowCost(rep.work.recomputes)
	r.set("span.build_ms_p50", rtr.p50("build"), "ms")
	r.set("span.simulate_ms_p50", rtr.p50("simulate"), "ms")
	r.set("core.encode_us_p50", rtr.p50("encode")*1e3, "us")
	r.set("core.result_kib", median(rep.resultKiB), "KiB")
	r.set("service.parse_us_p50", rtr.p50("parse")*1e3, "us")
	r.set("service.hash_us_p50", rtr.p50("hash")*1e3, "us")
	for _, k := range []string{"genomes", "swarp", "gen", "sched"} {
		r.set("service.execute_ms_p50."+k, median(rep.execByKey[k]), "ms")
	}
	var ok2xx, hits float64
	var wait []float64
	for i, resp := range traced {
		if resp.err != nil || resp.status != http.StatusOK {
			continue
		}
		ok2xx++
		if rep.hit[i] {
			hits++
		}
		// Derived: host latency less the request's offline Execute time
		// (zero for hits), i.e. time spent in HTTP, in the service's own
		// stages and waiting for a core.
		wait = append(wait, float64(resp.took.wall)/1e6-rep.execMS[i])
	}
	if ok2xx == 0 || plainLog.failed == len(reqs) {
		return nil, fmt.Errorf("no request of a traced pass succeeded")
	}
	r.set("service.cache_hit_ratio", hits/ok2xx, "ratio")
	r.set("service.sheds", float64(stats.Sheds), "count")
	r.set("service.wait_ms_p50", percentile(wait, 0.5), "ms")
	// The share of the traced pass's CPU time that the spans and the
	// profiler add.
	r.set("trace_overhead_share", 1-plainRun.cpu.Seconds()/tracedRun.cpu.Seconds(), "ratio")
	r.setGC(mem, len(reqs))

	offset := len(tr.spans)
	for _, s := range rtr.spans {
		s.ID += offset
		if s.Parent != 0 {
			s.Parent += offset
		}
		tr.spans = append(tr.spans, s)
	}
	r.tracer = tr
	r.attempted = 2 * len(reqs)
	r.failed = plainLog.failed + tracedLog.failed
	r.note("setup CPU s %.4g; %d requests per pass", cpuSeconds(setup), len(reqs))
	return r, r.fillBypassed()
}
