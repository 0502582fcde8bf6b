package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite genomes_reference.tsv from the simulator")

// TestGenomesReference re-simulates the whole grid and compares every
// makespan with the shipped table bit for bit; -update rewrites the table.
func TestGenomesReference(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates the 63-point grid")
	}
	env, err := buildGenomesEnv(nil)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	b.WriteString("# 1000Genomes (22 chromosomes, 8 nodes, PrePlaceInputs) makespans in seconds.\n")
	b.WriteString("# Regenerate with: go test -run TestGenomesReference -update\n")
	got := map[gridPoint]float64{}
	for i := 0; i < genomesGrid; i++ {
		p := gridAt(i)
		res, err := env.run(p)
		if err != nil {
			t.Fatalf("%v: %v", p, err)
		}
		got[p] = res.Makespan
		fmt.Fprintf(&b, "%s\t%d\t%s\n", genomesPresets[p.preset], p.step, strconv.FormatFloat(res.Makespan, 'g', -1, 64))
	}
	if *update {
		if err := os.WriteFile("genomes_reference.tsv", []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	ref, err := parseReference(genomesReferenceTSV)
	if err != nil {
		t.Fatal(err)
	}
	for p, ms := range got {
		if math.Float64bits(ms) != math.Float64bits(ref[p]) {
			t.Errorf("%v: makespan %v, reference %v", p, ms, ref[p])
		}
	}
}
