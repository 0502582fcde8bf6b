package storage

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"bbwfsim/internal/platform"
	"bbwfsim/internal/units"
	"bbwfsim/internal/workflow"
)

// registryFixture is a set of services of every kind and a pool of files
// and creator nodes to register against them. The services come from two
// platforms (a Summit-like one for the PFS and node-local buffers, a
// Cori-like one for a private-mode shared buffer): the registry only keys
// on Service values, so mixing them is fine and covers every rank.
type registryFixture struct {
	svcs  []Service
	files []*workflow.File
	nodes []*platform.Node // includes nil: a creator-less replica
}

func newRegistryFixture(t *testing.T, files int) registryFixture {
	t.Helper()
	_, summit, w := summitSystem(t, 3)
	_, cori, _ := coriSystem(t, platform.BBPrivate)
	fx := registryFixture{svcs: append(summit.Services(), cori.SharedBB())}
	for i := 0; i < files; i++ {
		// Few distinct sizes, so size ties are common and the ID tie-break
		// of the min-pick order is exercised.
		fx.files = append(fx.files, w.MustAddFile(fmt.Sprintf("f%02d", i), units.Bytes(1+i%4)*units.MB))
	}
	fx.nodes = append([]*platform.Node{nil}, summit.Platform().Nodes()...)
	return fx
}

// refModel is the naive reference the registry is checked against: a flat
// set of (file, service) pairs with their creators, answered by brute
// force over every pair.
type refModel map[refKey]*platform.Node

type refKey struct {
	f   *workflow.File
	svc Service
}

func (m refModel) filesOn(fx registryFixture, svc Service) []*workflow.File {
	var out []*workflow.File
	for _, f := range fx.files {
		if _, ok := m[refKey{f, svc}]; ok {
			out = append(out, f)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID() < out[j].ID() })
	return out
}

func (m refModel) locations(fx registryFixture, f *workflow.File) []Service {
	var out []Service
	for _, svc := range fx.svcs {
		if _, ok := m[refKey{f, svc}]; ok {
			out = append(out, svc)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name() < out[j].Name() })
	return out
}

// bestVisible is the ranking rule of Registry.BestVisible written out
// longhand: drop invisible private-mode replicas, rank the rest, and break
// rank ties by service name.
func (m refModel) bestVisible(fx registryFixture, f *workflow.File, node *platform.Node, enforce bool) Service {
	rank := func(svc Service) int {
		switch svc.Kind() {
		case KindNodeBB:
			if svc.Local(node) {
				return 3
			}
			return 2
		case KindSharedBB:
			return 2
		}
		return 1
	}
	var best Service
	for _, svc := range m.locations(fx, f) {
		if c := m[refKey{f, svc}]; enforce && svc.Kind() == KindSharedBB &&
			svc.Mode() == platform.BBPrivate && c != nil && c != node {
			continue
		}
		if best == nil || rank(svc) > rank(best) {
			best = svc
		}
	}
	return best
}

// minPickLess orders by size descending, then ID: the shape of the exec
// engine's spill order (the readers key is the engine's own state).
func minPickLess(a, b *workflow.File) bool {
	if a.Size() != b.Size() {
		return a.Size() > b.Size()
	}
	return a.ID() < b.ID()
}

// checkRegistry compares every query of reg with the model.
func checkRegistry(t *testing.T, step string, fx registryFixture, reg *Registry, m refModel, skip func(*workflow.File) bool) {
	t.Helper()
	for _, svc := range fx.svcs {
		want := m.filesOn(fx, svc)
		got := reg.FilesOn(svc)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("%s: FilesOn(%s) = %v, want %v", step, svc.Name(), got, want)
		}
		var bytes units.Bytes
		var pick *workflow.File
		for _, f := range want {
			bytes += f.Size()
			if !skip(f) && (pick == nil || minPickLess(f, pick)) {
				pick = f
			}
		}
		if got := reg.BytesOn(svc); got != bytes {
			t.Fatalf("%s: BytesOn(%s) = %v, want %v", step, svc.Name(), got, bytes)
		}
		// MinOn's contract: less only ever sees files skip accepts.
		less := func(a, b *workflow.File) bool {
			if skip(a) || skip(b) {
				t.Fatalf("%s: MinOn(%s) compared %s with %s; one is skipped", step, svc.Name(), a.ID(), b.ID())
			}
			return minPickLess(a, b)
		}
		if got := reg.MinOn(svc, less, skip); got != pick {
			t.Fatalf("%s: MinOn(%s) = %v, want %v", step, svc.Name(), got, pick)
		}
		if h := reg.held[svc]; h != nil {
			for slot, f := range h.files {
				if rep := reg.replica(f, svc); rep == nil || rep.pos != slot {
					t.Fatalf("%s: slot %d of %s holds %s, whose replica does not point back", step, slot, svc.Name(), f.ID())
				}
			}
		}
	}
	for _, f := range fx.files {
		locs := m.locations(fx, f)
		if got := reg.Locations(f); fmt.Sprint(got) != fmt.Sprint(locs) {
			t.Fatalf("%s: Locations(%s) = %v, want %v", step, f.ID(), got, locs)
		}
		if got := reg.Located(f); got != (len(locs) > 0) {
			t.Fatalf("%s: Located(%s) = %v, want %v", step, f.ID(), got, len(locs) > 0)
		}
		for _, svc := range fx.svcs {
			c, held := m[refKey{f, svc}]
			if got := reg.Has(f, svc); got != held {
				t.Fatalf("%s: Has(%s, %s) = %v, want %v", step, f.ID(), svc.Name(), got, held)
			}
			if got := reg.Creator(f, svc); got != c {
				t.Fatalf("%s: Creator(%s, %s) = %v, want %v", step, f.ID(), svc.Name(), got, c)
			}
		}
		for _, node := range fx.nodes[1:] {
			for _, enforce := range []bool{false, true} {
				want := m.bestVisible(fx, f, node, enforce)
				got, err := reg.BestVisible(f, node, enforce)
				if (err == nil) != (want != nil) || got != want {
					t.Fatalf("%s: BestVisible(%s, %s, %v) = %v, %v; want %v",
						step, f.ID(), node.Name(), enforce, got, err, want)
				}
			}
		}
	}
}

// TestRegistryMatchesModel drives the registry through seeded random
// Add/AddFrom/Remove sequences — re-adds that only change the creator,
// removes of absent replicas, one file on many services — and checks every
// query against the brute-force model after each step.
func TestRegistryMatchesModel(t *testing.T) {
	fx := newRegistryFixture(t, 12)
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		reg, m := NewRegistry(), refModel{}
		for step := 0; step < 150; step++ {
			f := fx.files[rng.Intn(len(fx.files))]
			svc := fx.svcs[rng.Intn(len(fx.svcs))]
			var op string
			switch r := rng.Intn(10); {
			case r < 3:
				op = "Add"
				reg.Add(f, svc)
				m[refKey{f, svc}] = nil
			case r < 6:
				node := fx.nodes[rng.Intn(len(fx.nodes))]
				op = "AddFrom"
				reg.AddFrom(f, svc, node)
				m[refKey{f, svc}] = node
			default:
				op = "Remove"
				reg.Remove(f, svc)
				delete(m, refKey{f, svc})
			}
			skipMod := 2 + rng.Intn(4)
			skip := func(f *workflow.File) bool { return f.Index()%skipMod == 0 }
			checkRegistry(t, fmt.Sprintf("seed %d step %d (%s %s on %s)", seed, step, op, f.ID(), svc.Name()),
				fx, reg, m, skip)
		}
	}
}

// skipNone is a package-level func value, so passing it builds no closure.
func skipNone(*workflow.File) bool { return false }

// TestRegistryQueriesZeroAllocs pins the registry's per-operation queries
// at zero steady-state allocations on a warmed registry: Has, Creator and
// BestVisible run on every read, and MinOn on every adaptive spill pick.
// It is the registry's counterpart of flow's TestRecomputeZeroAllocs.
func TestRegistryQueriesZeroAllocs(t *testing.T) {
	fx := newRegistryFixture(t, 32)
	reg := NewRegistry()
	for i, f := range fx.files {
		reg.Add(f, fx.svcs[0])
		reg.AddFrom(f, fx.svcs[1+i%(len(fx.svcs)-1)], fx.nodes[1+i%(len(fx.nodes)-1)])
	}
	f, node, bb := fx.files[5], fx.nodes[1], fx.svcs[1+5%(len(fx.svcs)-1)]
	if reg.Creator(f, bb) == nil {
		t.Fatalf("fixture: %s has no created replica on %s", f.ID(), bb.Name())
	}
	var sink int
	probes := []struct {
		name string
		fn   func()
	}{
		{"Has", func() {
			if reg.Has(f, bb) {
				sink++
			}
		}},
		{"Creator", func() {
			if reg.Creator(f, bb) != nil {
				sink++
			}
		}},
		{"BestVisible", func() {
			if svc, err := reg.BestVisible(f, node, true); err == nil && svc != nil {
				sink++
			}
		}},
		{"MinOn", func() {
			if reg.MinOn(bb, minPickLess, skipNone) != nil {
				sink++
			}
		}},
	}
	for _, p := range probes {
		sink = 0
		if allocs := testing.AllocsPerRun(100, p.fn); allocs != 0 {
			t.Errorf("%s allocates %.1f times per call on a warmed registry; want 0", p.name, allocs)
		}
		if sink == 0 {
			t.Errorf("%s found nothing on the warmed registry", p.name)
		}
	}
}
