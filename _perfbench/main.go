// Command perfbench is bbwfsim's repository benchmark. It drives the
// simulator from outside, through the public functions of its layers, on
// three workloads that stress different layers:
//
//	genomes-sweep   the paper's 903-task 1000Genomes case study, one
//	                simulation at a time over a seeded (platform, staged
//	                fraction) grid order: kernel + flow solver dominated;
//	swarp-pressure  adapt-on SWarp under a squeezed burst buffer with
//	                seeded faults and checkpoints: storage, exec, adapt,
//	                faults and ckpt dominated;
//	bbsimd-mix      a closed-loop request mix against an in-process
//	                simulation service over loopback HTTP: schema, hash,
//	                cache, encoding, sched and service dominated.
//
// Usage:
//
//	perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// With --trace 0 the run reports the end-to-end metrics, whose timings are
// CPU time scaled to a reference speed (refkernel.go); with --trace 1 it
// records spans around every layer call, takes a CPU profile, and reports
// the per-layer metrics. The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}. The exit code is
// non-zero when any output check fails. See README.md for the metric
// glossary.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// workload is one benchmark workload.
type workload struct {
	name string
	// run measures the workload for the given duration and returns the
	// end-to-end (traced=false) or per-layer (traced=true) report.
	run func(seed int64, seconds float64, traced bool) (*report, error)
}

var benchWorkloads = []workload{
	{"genomes-sweep", runGenomes},
	{"swarp-pressure", runSwarp},
	{"bbsimd-mix", runMix},
}

// outDir, relative to the directory the benchmark runs in, receives the
// traced run's spans and CPU profile and bbsimd-mix's cache journal.
var outDir = ".bench_out"

// setupRepeats is how many times each run performs its set-up; setup_s is
// the median, so one slow set-up does not move the metric.
const setupRepeats = 9

func main() {
	name := flag.String("workload", "", "workload: genomes-sweep, swarp-pressure or bbsimd-mix")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Float64("seconds", 10, "measured seconds")
	traceFlag := flag.Int("trace", 0, "1 runs the traced per-layer measurement")
	flag.Parse()

	var w *workload
	for i := range benchWorkloads {
		if benchWorkloads[i].name == *name {
			w = &benchWorkloads[i]
		}
	}
	if w == nil || *seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: usage: --workload <genomes-sweep|swarp-pressure|bbsimd-mix> --seed <n> --seconds <s> --trace <0|1>\n")
		os.Exit(2)
	}
	traced := *traceFlag == 1
	rep, err := w.run(*seed, *seconds, traced)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		os.Exit(1)
	}
	rep.host = hostRecord(w.name, *seed)
	if traced {
		path, err := rep.writeTrace(outDir, w.name, *seed)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: writing spans: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("spans: %s\n", path)
	}
	if err := rep.print(os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	if rep.wrong > 0 {
		os.Exit(1)
	}
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is what one run hands back for printing.
type report struct {
	attempted, failed, wrong int
	metrics                  map[string]metric
	// notes are human-readable lines printed before the result; they
	// carry the values the JSON line cannot, such as fail_share's base.
	notes     []string
	host      map[string]any
	tracer    *tracer            // nil on untraced runs
	fold      map[string]float64 // full cpu_share fold of the traced run
	profiles  [][]byte           // the traced run's CPU profiles, one per profiled pass
	profileNS int64              // CPU time the profiles sampled
}

func newReport() *report { return &report{metrics: map[string]metric{}} }

func (r *report) set(name string, v float64, unit string) { r.metrics[name] = metric{v, unit} }

func (r *report) note(format string, a ...any) { r.notes = append(r.notes, fmt.Sprintf(format, a...)) }

// print writes the human-readable lines, then the one-line JSON result.
func (r *report) print(f *os.File) error {
	hb, err := json.Marshal(r.host)
	if err != nil {
		return err
	}
	fmt.Fprintf(f, "host: %s\n", hb)
	for _, n := range r.notes {
		fmt.Fprintln(f, n)
	}
	names := make([]string, 0, len(r.metrics))
	for n := range r.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(f, "%-34s %14.6g %s\n", n, r.metrics[n].Value, r.metrics[n].Unit)
	}
	b, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.wrong == 0, r.attempted, r.failed, r.metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(f, "%s\n", b)
	return err
}

// writeTrace writes the traced run's spans, per-span self times and the
// full CPU fold as one JSON document under dir, next to the CPU profiles
// themselves, numbered from 1 (go tool pprof merges them when given all).
func (r *report) writeTrace(dir, name string, seed int64) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	doc := struct {
		Host     map[string]any     `json:"host"`
		SelfMS   map[string]float64 `json:"self_ms_by_span"`
		CPUShare map[string]float64 `json:"cpu_share"`
		Spans    []span             `json:"spans"`
	}{r.host, r.tracer.selfMS(), r.fold, r.tracer.spans}
	b, err := json.Marshal(doc)
	if err != nil {
		return "", err
	}
	base := filepath.Join(dir, fmt.Sprintf("%s-%d", name, seed))
	for k, p := range r.profiles {
		if err := os.WriteFile(fmt.Sprintf("%s.%d.pprof", base, k+1), p, 0o644); err != nil {
			return "", err
		}
	}
	return base + ".spans.json", os.WriteFile(base+".spans.json", b, 0o644)
}

// hostRecord describes where and how the run was made.
func hostRecord(name string, seed int64) map[string]any {
	h := map[string]any{
		"workload":   name,
		"seed":       seed,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"cpu":        cpuModel(),
		"time":       time.Now().UTC().Format(time.RFC3339),
	}
	return h
}

// cpuModel reads the CPU model name on Linux; elsewhere it reports the
// architecture.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			k, v, ok := strings.Cut(line, ":")
			if ok && strings.TrimSpace(k) == "model name" {
				return strings.TrimSpace(v)
			}
		}
	}
	return runtime.GOARCH
}
