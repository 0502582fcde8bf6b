package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"sort"
	"testing"
)

// The same seed must give the same op list, another seed another list.
func TestGeneratorsSeeded(t *testing.T) {
	if !reflect.DeepEqual(genomesOps(7, 200), genomesOps(7, 200)) {
		t.Error("genomes-sweep: same seed, different op lists")
	}
	if reflect.DeepEqual(genomesOps(7, 200), genomesOps(8, 200)) {
		t.Error("genomes-sweep: seeds 7 and 8 gave the same op list")
	}
	// Every grid point appears once per cycle, whatever the seed.
	seen := map[gridPoint]int{}
	for _, p := range genomesOps(7, 2*genomesGrid) {
		seen[p]++
	}
	if len(seen) != genomesGrid {
		t.Errorf("two cycles visit %d grid points, want %d", len(seen), genomesGrid)
	}
	for p, n := range seen {
		if n != 2 {
			t.Errorf("%v visited %d times in two cycles", p, n)
		}
	}

	if !reflect.DeepEqual(swarpOps(7, 100), swarpOps(7, 100)) {
		t.Error("swarp-pressure: same seed, different op lists")
	}
	if reflect.DeepEqual(swarpOps(7, 100), swarpOps(8, 100)) {
		t.Error("swarp-pressure: seeds 7 and 8 gave the same op list")
	}
	// Every deck op appears once per cycle, whatever the seed, and the
	// deck's fault seeds are distinct.
	deck := map[swarpOp]int{}
	for _, op := range swarpOps(7, 2*swarpDeck) {
		deck[op]++
	}
	if len(deck) != swarpDeck {
		t.Errorf("two cycles visit %d deck ops, want %d", len(deck), swarpDeck)
	}
	for op, n := range deck {
		if n != 2 {
			t.Errorf("%v visited %d times in two cycles", op, n)
		}
	}

	mix := func(seed int64) []mixReq {
		reqs, err := mixRequests(seed, 500)
		if err != nil {
			t.Fatal(err)
		}
		return reqs
	}
	if !reflect.DeepEqual(mix(7), mix(7)) {
		t.Error("bbsimd-mix: same seed, different request lists")
	}
	if reflect.DeepEqual(mix(7), mix(8)) {
		t.Error("bbsimd-mix: seeds 7 and 8 gave the same request list")
	}
}

// The mix keeps its proportions: 27 in 40 replays, one in twenty a
// campaign, the rest cold single runs; every replay repeats a cold request
// recent enough to still be cached, and every cold request is distinct.
func TestMixShape(t *testing.T) {
	reqs, err := mixRequests(11, 2000)
	if err != nil {
		t.Fatal(err)
	}
	kinds := map[string]int{}
	distinct := map[string]bool{}
	for i, q := range reqs {
		kinds[q.kind]++
		if q.replayOf >= 0 {
			if q.replayOf >= i || !bytes.Equal(reqs[q.replayOf].body, q.body) {
				t.Fatalf("request %d replays %d, which is not an earlier identical request", i, q.replayOf)
			}
			continue
		}
		if distinct[string(q.body)] {
			t.Fatalf("cold request %d repeats an earlier body", i)
		}
		distinct[string(q.body)] = true
	}
	share := func(k string) float64 { return float64(kinds[k]) / float64(len(reqs)) }
	if s := share("replay"); math.Abs(s-0.675) > 0.01 {
		t.Errorf("replay share %.3f, want 0.675", s)
	}
	if s := share("campaign"); math.Abs(s-0.05) > 0.01 {
		t.Errorf("campaign share %.3f, want about 0.05", s)
	}
}

// benchmarkMetrics reads the metric names BENCHMARK.json promises.
func benchmarkMetrics(t *testing.T) (endToEnd, perLayer []string) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	for _, m := range doc.EndToEnd {
		endToEnd = append(endToEnd, m.Name)
	}
	for _, m := range doc.PerLayer {
		perLayer = append(perLayer, m.Name)
	}
	sort.Strings(endToEnd)
	sort.Strings(perLayer)
	return endToEnd, perLayer
}

// A seed no run while building the benchmark used must still produce the
// full metric set, untraced and traced, with every output check passing.
func TestHeldOutSeedFullMetricSet(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	outDir = t.TempDir()
	endToEnd, perLayer := benchmarkMetrics(t)
	const heldOut = 424242
	for _, w := range benchWorkloads {
		for _, traced := range []bool{false, true} {
			rep, err := w.run(heldOut, 0.5, traced)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			var got []string
			for n := range rep.metrics {
				got = append(got, n)
			}
			sort.Strings(got)
			want := endToEnd
			if traced {
				want = perLayer
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s traced=%v reports %v, want %v", w.name, traced, got, want)
			}
			if rep.wrong > 0 || rep.attempted < 1 {
				t.Errorf("%s traced=%v: %d wrong outputs of %d ops", w.name, traced, rep.wrong, rep.attempted)
			}
			if !traced && rep.metrics["ok_share"].Value != 1 {
				t.Errorf("%s: ok_share %v, want 1", w.name, rep.metrics["ok_share"].Value)
			}
		}
	}
}

// pbAppend encodes protobuf fields for the synthetic profile.
type pbBuf []byte

func (b pbBuf) varint(field int, v uint64) pbBuf {
	b = binary.AppendUvarint(b, uint64(field)<<3)
	return binary.AppendUvarint(b, v)
}

func (b pbBuf) bytes(field int, v []byte) pbBuf {
	b = binary.AppendUvarint(b, uint64(field)<<3|2)
	b = binary.AppendUvarint(b, uint64(len(v)))
	return append(b, v...)
}

// syntheticProfile encodes a gzipped CPU profile whose samples have the
// given stacks (leaf first) and counts.
func syntheticProfile(t *testing.T, stacks [][]string, counts []int64) []byte {
	var p pbBuf
	strs := []string{""}
	str := func(s string) uint64 {
		for i, x := range strs {
			if x == s {
				return uint64(i)
			}
		}
		strs = append(strs, s)
		return uint64(len(strs) - 1)
	}
	fnID := map[string]uint64{}
	var fns, locs pbBuf
	for si, stack := range stacks {
		var ids pbBuf
		for _, name := range stack {
			id, ok := fnID[name]
			if !ok {
				id = uint64(len(fnID) + 1)
				fnID[name] = id
				fns = fns.bytes(5, pbBuf(nil).varint(1, id).varint(2, str(name)))
				// One location per function, with a single line frame.
				locs = locs.bytes(4, pbBuf(nil).varint(1, id).bytes(4, pbBuf(nil).varint(1, id)))
			}
			ids = binary.AppendUvarint(ids, id)
		}
		var vals pbBuf
		vals = binary.AppendUvarint(vals, uint64(counts[si]))
		vals = binary.AppendUvarint(vals, uint64(counts[si]*10_000_000))
		p = p.bytes(2, pbBuf(nil).bytes(1, ids).bytes(2, vals))
	}
	p = append(p, locs...)
	p = append(p, fns...)
	for _, s := range strs {
		p = p.bytes(6, []byte(s))
	}
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	if _, err := zw.Write(p); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return gz.Bytes()
}

// Folding must charge each sample to its leaf function's package, and
// split runtime leaves into GC, allocator and other runtime work.
func TestFoldSyntheticProfile(t *testing.T) {
	stacks := [][]string{
		{"bbwfsim/internal/flow.(*Network).recompute", "bbwfsim/internal/sim.(*Engine).Run"},
		{"bbwfsim/internal/sim.(*Engine).Run", "bbwfsim/internal/core.(*Simulator).Run"},
		{"encoding/json.(*encodeState).string", "bbwfsim/internal/core.EncodeResult"},
		{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"},
		{"runtime.memclrNoHeapPointers", "runtime.mallocgc", "bbwfsim/internal/storage.(*Registry).FilesOn"},
		{"runtime.futex", "runtime.findRunnable", "runtime.schedule"},
		{"type:.eq.bbwfsim/internal/metrics.series", "runtime.mapaccess2"},
		{"net/http.(*conn).serve"},
		{"bbwfsim/internal/service.Execute.func1"},
	}
	counts := []int64{40, 10, 5, 15, 10, 8, 2, 6, 4}
	samples, err := parseProfile(syntheticProfile(t, stacks, counts))
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != len(stacks) {
		t.Fatalf("parsed %d samples, want %d", len(samples), len(stacks))
	}
	got := fold(samples)
	want := map[string]float64{
		"flow": 40, "sim": 10, "encoding_json": 5, "runtime_gc": 15, "runtime_malloc": 10,
		"runtime": 10, "net_http": 6, "service": 4,
	}
	for k, v := range want {
		if math.Abs(got[k]-v/100) > 1e-12 {
			t.Errorf("cpu_share.%s = %v, want %v", k, got[k], v/100)
		}
	}
	if len(got) != len(want) {
		t.Errorf("fold has buckets %v, want exactly %v", got, want)
	}
}

// Self time is a span's length less the union of its children's.
func TestSelfTime(t *testing.T) {
	tr := &tracer{spans: []span{
		{ID: 1, Name: "request", StartNS: 0, EndNS: 100},
		{ID: 2, Parent: 1, Name: "execute", StartNS: 10, EndNS: 60},
		{ID: 3, Parent: 1, Name: "hash", StartNS: 50, EndNS: 70}, // overlaps execute
		{ID: 4, Parent: 2, Name: "simulate", StartNS: 20, EndNS: 40},
	}}
	got := tr.selfMS()
	want := map[string]float64{"request": 40e-6, "execute": 30e-6, "hash": 20e-6, "simulate": 20e-6}
	for k, v := range want {
		if math.Abs(got[k]-v) > 1e-15 {
			t.Errorf("self %s = %v ms, want %v", k, got[k], v)
		}
	}
}

// The reference kernel allocates the same on every call, so runs can take
// its allocations out of their own, and a call takes a few ms of CPU time.
func TestRefKernel(t *testing.T) {
	m1, b1 := refAllocs()
	m2, b2 := refAllocs()
	if m1 != m2 || b1 != b2 || m1 == 0 {
		t.Errorf("kernel allocations %d (%d B) then %d (%d B), want equal and non-zero", m1, b1, m2, b2)
	}
	k := newRefClock()
	if ms := median(k.cpuMS); ms < 0.1 || ms > 100 {
		t.Errorf("kernel call takes %.3g ms of CPU time", ms)
	}
}
