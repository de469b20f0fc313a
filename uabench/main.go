// Command uabench is the repository's end-to-end benchmark. It runs one of
// three closed-loop workloads over the UA-DB engine — the paper's PDBench
// queries, the real-data queries through the query server, and
// out-of-core execution under a memory budget — checks every answer
// outside the timed region, and prints each metric by name with its unit.
// The last line of standard output is one JSON object:
//
//	{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 a
// traced run re-executes every query class through the engine's public
// layer calls and reports per-layer metrics instead, writing its spans to
// <out>/trace-<workload>-<seed>.json.
//
// Run it through run.sh, which builds it from the enclosing checkout:
//
//	bash uabench/run.sh --workload pdbench --seed 1 --seconds 20 --trace 0
//
// See README.md for the workloads, their shares and why each was chosen.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// config is one run's settings.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	scale    float64 // multiplies every data size; 1 is the benchmark's size
	setups   int     // set-up repetitions behind the setup_s median: 3, or 1 when traced
	outDir   string  // spill files and the trace go below it
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one run's outcome: query counts, metrics and the human-readable
// lines printed before the JSON line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	notes     []string
}

func newResult() *result { return &result{Correct: true, Metrics: map[string]metric{}} }

func (r *result) set(name string, v float64, unit string) { r.Metrics[name] = metric{v, unit} }

func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// query counts one attempted query and, when err is set, one failure.
func (r *result) query(err error) {
	r.Attempted++
	if err != nil {
		r.fail(err)
	}
}

// fail records a failed query or check: a wrong answer counts as a failed
// query and makes the run incorrect.
func (r *result) fail(err error) {
	r.Failed++
	r.Correct = false
	if r.Failed <= 10 {
		r.note("FAILED: %v", err)
	}
}

// write prints the notes, one line per metric, and the JSON line last.
func (r *result) write(w io.Writer) error {
	for _, n := range r.notes {
		fmt.Fprintln(w, n)
	}
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "metric %-34s %14.6f %s\n", n, r.Metrics[n].Value, r.Metrics[n].Unit)
	}
	data, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(data))
	return err
}

// workloads maps a workload name to its runner.
var workloads = map[string]func(cfg config, out *result) error{
	"pdbench":         runPDBench,
	"server-realdata": runRealData,
	"out-of-core":     runOutOfCore,
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("uabench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	cfg := config{}
	fs.StringVar(&cfg.workload, "workload", "", "workload: pdbench, server-realdata or out-of-core")
	fs.Int64Var(&cfg.seed, "seed", 1, "seed for the generated data and the query sequence")
	fs.Float64Var(&cfg.seconds, "seconds", 10, "how long the timed loop runs, in seconds")
	trace := fs.Int("trace", 0, "1 runs the traced per-layer run instead of the end-to-end one")
	fs.Float64Var(&cfg.scale, "scale", 1, "data size multiplier (the self-test uses a tiny one)")
	fs.StringVar(&cfg.outDir, "out", filepath.Join(".bench_build", "out"), "directory for spill files and the trace")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	runner, ok := workloads[cfg.workload]
	if !ok || cfg.seconds <= 0 || cfg.scale <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "uabench: bad arguments (workload %q, seconds %v, scale %v, trace %d)\n",
			cfg.workload, cfg.seconds, cfg.scale, *trace)
		return 2
	}
	cfg.trace = *trace == 1
	cfg.setups = 3
	if cfg.trace {
		cfg.setups = 1 // the traced run reports no set-up time
	}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		fmt.Fprintln(stderr, "uabench:", err)
		return 1
	}
	out := newResult()
	out.note("workload %s seed %d seconds %g trace %v scale %g", cfg.workload, cfg.seed, cfg.seconds, cfg.trace, cfg.scale)
	if err := runner(cfg, out); err != nil {
		fmt.Fprintln(stderr, "uabench:", err)
		return 1
	}
	if err := out.write(stdout); err != nil {
		fmt.Fprintln(stderr, "uabench:", err)
		return 1
	}
	return 0
}

// spillDir makes an empty per-run spill directory below the output
// directory; the caller removes it.
func spillDir(cfg config) (string, error) {
	return os.MkdirTemp(cfg.outDir, fmt.Sprintf("spill-%s-%d-", cfg.workload, cfg.seed))
}

// rounds yields the query sequence: whole rounds, each holding every class
// index weights[i] times in a seeded random order, until the time budget is
// spent (at least one round). fn runs one round.
func rounds(rng *rand.Rand, weights []int, seconds float64, fn func(round []int)) {
	var base []int
	for ci, w := range weights {
		for k := 0; k < w; k++ {
			base = append(base, ci)
		}
	}
	start := time.Now()
	for {
		round := append([]int(nil), base...)
		rng.Shuffle(len(round), func(i, j int) { round[i], round[j] = round[j], round[i] })
		fn(round)
		if time.Since(start).Seconds() >= seconds {
			return
		}
	}
}

// alternate runs the two halves of the pair-th UA/det pair, the first one
// first on even pairs and the second one first on odd pairs, so neither
// side always runs on the heap the other left behind.
func alternate(pair int, first, second func()) {
	if pair%2 == 0 {
		first()
		second()
	} else {
		second()
		first()
	}
}

// latencies collects the timed executions of a run, also per query class.
type latencies struct {
	ms      []float64
	sum     time.Duration
	byClass map[int][]float64
}

func (l *latencies) add(class int, d time.Duration) {
	l.ms = append(l.ms, ms(d))
	l.sum += d
	if l.byClass == nil {
		l.byClass = map[int][]float64{}
	}
	l.byClass[class] = append(l.byClass[class], ms(d))
}

// classNotes prints each class's latency range next to its weight, so the
// class shares can be checked against the percentile ranks.
func (l *latencies) classNotes(out *result, what string, names []string, weights []int) {
	for ci, name := range names {
		x := l.byClass[ci]
		out.note("class %-7s %s: n=%-5d p10 %.3f ms, p50 %.3f ms, p90 %.3f ms, weight %d per round",
			name, what, len(x), percentile(x, 0.1), percentile(x, 0.5), percentile(x, 0.9), weights[ci])
	}
}

// report sets the latency and throughput metrics shared by every workload.
func (l *latencies) report(out *result) {
	out.set("queries_per_s", float64(len(l.ms))/l.sum.Seconds(), "1/s")
	out.set("latency_p50_ms", percentile(l.ms, 0.5), "ms")
	out.set("latency_p90_ms", percentile(l.ms, 0.9), "ms")
	out.note("timed UA/AU queries: %d (p90 has %d samples above it)", len(l.ms), len(l.ms)/10)
}

// finishEndToEnd sets the metrics every end-to-end run reports at exit.
func finishEndToEnd(out *result, setupS float64) error {
	out.set("setup_s", setupS, "s")
	rss, err := peakRSSMB()
	if err != nil {
		return err
	}
	out.set("peak_rss_mb", rss, "MB")
	return nil
}
