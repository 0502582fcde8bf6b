package exec

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"bbwfsim/internal/adapt"
	"bbwfsim/internal/platform"
	"bbwfsim/internal/sim"
	"bbwfsim/internal/storage"
	"bbwfsim/internal/units"
	"bbwfsim/internal/workflow"
)

// TestSpillCandidateOrder registers one set of burst-buffer replicas in
// many shuffled insertion orders (with remove/re-add churn to scramble the
// registry's slots) and drains the buffer pick by pick. The sequence must
// always be the spill order: fewest unfinished readers, then largest size,
// then file ID. Files already mid-spill and checkpoint snapshots must never
// be picked, and a pick must not allocate.
func TestSpillCandidateOrder(t *testing.T) {
	wf := workflow.New("spill")
	ckptWf := workflow.New("spill+ckpt")
	specs := []struct {
		id      string
		readers int
		size    units.Bytes
	}{
		{"f", 2, 1 * units.MB},
		{"e", 1, 9 * units.MB},
		{"d", 1, 9 * units.MB}, // ties e on readers and size: ID decides
		{"b", 0, 2 * units.MB},
		{"a", 0, 2 * units.MB}, // ties b on readers and size: ID decides
		{"c", 0, 5 * units.MB},
		{"hot", 0, 100 * units.MB}, // would go first, but is mid-spill
	}
	want := []string{"c", "a", "b", "d", "e", "f"}

	var files []*workflow.File
	readers := make([]int, len(specs))
	for _, s := range specs {
		f := wf.MustAddFile(s.id, s.size)
		readers[f.Index()] = s.readers
		files = append(files, f)
	}
	// A snapshot outside the DAG, larger than everything: never a victim.
	// Snapshots are numbered by their own workflow, so after a long
	// checkpointing run their Index() runs past the DAG's readers table;
	// the pick must not consult readers for them.
	for i := 0; i <= len(readers); i++ {
		ckptWf.MustAddFile(fmt.Sprintf("snap%d", i), units.MB)
	}
	snap := ckptWf.MustAddFile("snap", 500*units.MB)
	if snap.Index() < len(readers) {
		t.Fatalf("fixture: snapshot index %d inside readers (len %d)", snap.Index(), len(readers))
	}
	files = append(files, snap)

	for seed := int64(1); seed <= 12; seed++ {
		e := &engine{
			sys:     storage.NewSystem(platform.MustNew(sim.NewEngine(), platform.Cori(1, platform.BBPrivate)), nil),
			wf:      wf,
			readers: append([]int(nil), readers...),
			ckptOf:  map[*workflow.File]*ckptRec{snap: {file: snap}},
		}
		e.ad = newAdaptState(adapt.Policy{})
		e.ad.spills[wf.File("hot")] = &adaptCopy{}
		bb, reg := e.sys.SharedBB(), e.sys.Registry()

		rng := rand.New(rand.NewSource(seed))
		order := rng.Perm(len(files))
		for _, i := range order {
			reg.Add(files[i], bb)
		}
		for _, i := range order[:len(order)/2] {
			reg.Remove(files[i], bb)
			reg.Add(files[i], bb)
		}

		if seed == 1 {
			if allocs := testing.AllocsPerRun(100, func() { e.spillCandidate(bb) }); allocs != 0 {
				t.Errorf("spillCandidate allocates %.1f times per pick; want 0", allocs)
			}
		}

		var got []string
		for f := e.spillCandidate(bb); f != nil; f = e.spillCandidate(bb) {
			got = append(got, f.ID())
			e.ad.spills[f] = &adaptCopy{}
			if len(got) > len(files) {
				break
			}
		}
		if !slices.Equal(got, want) {
			t.Fatalf("seed %d: spill sequence %v, want %v", seed, got, want)
		}
	}
}
