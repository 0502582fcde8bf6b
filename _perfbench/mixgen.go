package main

import (
	"encoding/json"
	"math/rand"

	"bbwfsim/internal/service"
)

// The bbsimd-mix request stream. Of every 40 requests, 27 replay recent
// requests (cache hits), 11 are distinct cold single runs and 2 are
// /v1/campaign seed sweeps whose first point is an earlier single run. The
// hits are over half so the median request is a hit, and the heavy cold
// runs (generated DAGs and 1000Genomes, 8 of 40) are a fifth of the stream
// so p90 falls inside them. A percentile that falls on the edge of a
// population instead (the boundary between hits and cold runs, or the
// lower edge of a thin heavy tail) moved by a quarter to a third between
// runs, because the few percent of requests a busy host slows shift it.
// The slot pattern is fixed, so heavy requests arrive evenly spaced in
// every stream; the seed deals each kind's shapes from a deck in a fresh
// order each time the deck runs out, picks what replays and campaigns
// repeat, and gives every cold request its own request seed (which drives
// generated DAGs, sched job traces and fault streams). Every seed thus
// offers the same mix of work in a different order.

// mixSlots is one cycle of the stream.
var mixSlots = []string{
	"gen", "replay", "replay", "genomes", "replay", "replay", "swarp", "replay", "replay", "replay",
	"gen", "replay", "replay", "genomes", "replay", "replay", "campaign", "replay", "replay", "sched",
	"gen", "replay", "replay", "genomes", "replay", "replay", "small", "replay", "replay", "replay",
	"gen", "replay", "replay", "genomes", "replay", "replay", "campaign", "replay", "replay", "replay",
}

// mixReplayWindow is how many of the latest cold requests a replay picks
// from.
const mixReplayWindow = 256

// mixCacheEntries is the server's cache size. The 256 latest cold runs
// span about 930 requests, which fill about 350 entries with them and the
// campaign points between them, so replays are hits. The cache fills in
// the first few seconds of a run and the heap then holds steady, so the
// heap metric does not depend on how many requests a run got through.
const mixCacheEntries = 512

var (
	mixPresets    = []string{"cori-private", "cori-striped", "summit"}
	mixPolicies   = []string{"fcfs", "easy", "plan", "maxbb", "maxparallel", "directio"}
	mixSchedJobs  = []int{200, 300, 400}
	mixChromosome = []int{4, 7, 10, 13, 16, 19, 22}
	mixPipelines  = []int{4, 5, 6, 7, 8}
	mixGenTasks   = []int{1000, 1500, 2000, 2500, 3000}
	mixTopologies = []string{"montage", "forkjoin"}
)

// mixReq is one request of the stream.
type mixReq struct {
	path     string // "/v1/run" or "/v1/campaign"
	kind     string // the slot kind that produced it
	body     []byte
	replayOf int // index of the request it repeats, or -1
}

// deck deals the indices 0..n-1 in a fresh seeded order per round.
type deck struct {
	n    int
	left []int
}

func (d *deck) draw(rng *rand.Rand) int {
	if len(d.left) == 0 {
		d.left = rng.Perm(d.n)
	}
	i := d.left[0]
	d.left = d.left[1:]
	return i
}

// mixGen generates the stream for one seed.
type mixGen struct {
	rng                        *rand.Rand
	genomes, swarp, gen, sched deck
	nextSeed                   int64
	runs                       []int // earlier cold /v1/run requests
	bases                      []int // the swarp and small ones without a sched block
	out                        []mixReq
}

// mixRequests returns the first n requests of the seed's stream.
func mixRequests(seed int64, n int) ([]mixReq, error) {
	g := newMixGen(seed)
	for len(g.out) < n {
		if _, err := g.next(); err != nil {
			return nil, err
		}
	}
	return g.out, nil
}

// next generates the stream's next request.
func (g *mixGen) next() (mixReq, error) {
	if err := g.add(mixSlots[len(g.out)%len(mixSlots)]); err != nil {
		return mixReq{}, err
	}
	return g.out[len(g.out)-1], nil
}

func newMixGen(seed int64) *mixGen {
	return &mixGen{
		rng:      rand.New(rand.NewSource(seed)),
		genomes:  deck{n: len(mixChromosome)},
		swarp:    deck{n: len(mixPipelines)},
		gen:      deck{n: len(mixGenTasks) * len(mixTopologies)},
		sched:    deck{n: len(mixPolicies) * len(mixSchedJobs)},
		nextSeed: seed << 20,
	}
}

// seed returns a request seed no earlier request of the stream used, so
// every cold request is a distinct cache key.
func (g *mixGen) seed() int64 {
	g.nextSeed++
	return g.nextSeed
}

func (g *mixGen) add(kind string) error {
	if (kind == "replay" && len(g.runs) == 0) || (kind == "campaign" && len(g.bases) == 0) {
		kind = "small" // nothing to repeat yet
	}
	switch kind {
	case "replay":
		// Replays repeat a recent request, one the server's FIFO cache
		// still holds, so they are hits.
		recent := g.runs[max(0, len(g.runs)-mixReplayWindow):]
		i := recent[g.rng.Intn(len(recent))]
		g.out = append(g.out, mixReq{path: g.out[i].path, kind: kind, body: g.out[i].body, replayOf: i})
		return nil
	case "campaign":
		// Campaign bases are the cheaper single workflow runs, so the
		// latency tail stays with the large sched and generated requests.
		var base service.Request
		if err := json.Unmarshal(g.out[g.bases[g.rng.Intn(len(g.bases))]].body, &base); err != nil {
			return err
		}
		seeds := []int64{base.Seed, g.seed(), g.seed()}
		base.Seed = 0
		b, err := json.Marshal(service.CampaignRequest{Base: base, Seeds: seeds})
		g.out = append(g.out, mixReq{path: "/v1/campaign", kind: kind, body: b, replayOf: -1})
		return err
	}
	req := g.cold(kind)
	b, err := json.Marshal(req)
	if err != nil {
		return err
	}
	g.runs = append(g.runs, len(g.out))
	if req.Sched == nil && (kind == "swarp" || kind == "small") {
		g.bases = append(g.bases, len(g.out))
	}
	g.out = append(g.out, mixReq{path: "/v1/run", kind: kind, body: b, replayOf: -1})
	return nil
}

// cold builds one distinct request of the given kind.
func (g *mixGen) cold(kind string) service.Request {
	preset := mixPresets[g.rng.Intn(len(mixPresets))]
	switch kind {
	case "genomes":
		return service.Request{
			Workflow: service.WorkflowSpec{Kind: service.KindGenomes, Chromosomes: mixChromosome[g.genomes.draw(g.rng)]},
			Platform: service.PlatformSpec{Preset: preset, Nodes: 8},
			Run:      service.RunSpec{StagedFraction: float64(g.rng.Intn(5)) / 4, PrePlaceInputs: true},
			Seed:     g.seed(),
		}
	case "swarp":
		return service.Request{
			Workflow: service.WorkflowSpec{Kind: service.KindSWarp, Pipelines: mixPipelines[g.swarp.draw(g.rng)]},
			Platform: service.PlatformSpec{Preset: preset, Nodes: 2},
			Run:      service.RunSpec{StagedFraction: 1, IntermediatesToBB: true, BBFallback: true},
			Ckpt:     &service.CkptSpec{IntervalSeconds: 30, Tier: "bb", MinSizeMiB: 256},
			Adapt:    &service.AdaptSpec{SpillHighWater: 0.7, SpillLowWater: 0.35, ReplicateOnFault: true, DegradedFallback: true},
			Faults: &service.FaultSpec{
				CrashMeanSeconds: 120, CrashBudget: 4,
				NodeFailMeanSeconds: 600, NodeMTTRSeconds: 60, NodeFailBudget: 1,
				BBRejectProb: 0.05, MaxRetries: 20,
			},
			Seed: g.seed(),
		}
	case "gen":
		i := g.gen.draw(g.rng)
		return service.Request{
			Workflow: service.WorkflowSpec{Kind: service.KindGen, Topology: mixTopologies[i%len(mixTopologies)],
				Tasks: mixGenTasks[i/len(mixTopologies)], Width: 32},
			Platform: service.PlatformSpec{Preset: preset, Nodes: 4},
			Run:      service.RunSpec{StagedFraction: 0.5, IntermediatesToBB: true, BBFallback: true},
			Seed:     g.seed(),
		}
	case "sched":
		i := g.sched.draw(g.rng)
		return service.Request{
			Platform: service.PlatformSpec{Preset: preset, Nodes: 64},
			Sched:    &service.SchedSpec{Policy: mixPolicies[i%len(mixPolicies)], Jobs: mixSchedJobs[i/len(mixPolicies)]},
			Seed:     g.seed(),
		}
	}
	return service.SeededRequest(g.seed())
}
