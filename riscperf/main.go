// Command riscperf is the repository's end-to-end benchmark. It drives the
// simulator and the riscd serving layer only through their public
// functions, checks every output against an independent reference, and
// prints the metrics BENCHMARK.json names:
//
//	bash riscperf/run.sh --workload suite --seed 1 --seconds 36 --trace 0
//
// Workloads are suite and serve_hot (see README.md). With
// --trace 0 the last line of standard output carries the end-to-end
// metrics; with --trace 1 the run records spans around every call into a
// layer, writes them to --trace-out, and reports the per-layer metrics.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	traceOut string
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("riscperf", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var traceFlag int
	fs.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	fs.Int64Var(&o.seed, "seed", 1, "seed the workload's inputs are drawn from")
	fs.IntVar(&o.seconds, "seconds", 20, "how long the run measures")
	fs.IntVar(&traceFlag, "trace", 0, "1 records spans and reports the per-layer metrics")
	fs.StringVar(&o.traceOut, "trace-out", "", "span file of a traced run (default .bench_build/riscperf/trace-<workload>-<seed>.jsonl)")
	record := fs.String("record-golden", "", "run one suite pass and write its simulated statistics to this file, then exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *record != "" {
		if err := recordGolden(*record); err != nil {
			fmt.Fprintln(stderr, "riscperf:", err)
			return 1
		}
		return 0
	}
	if traceFlag != 0 && traceFlag != 1 {
		fmt.Fprintln(stderr, "riscperf: --trace must be 0 or 1")
		return 2
	}
	o.trace = traceFlag == 1
	if o.seconds < 1 {
		fmt.Fprintln(stderr, "riscperf: --seconds must be at least 1")
		return 2
	}
	if o.traceOut == "" {
		o.traceOut = fmt.Sprintf(".bench_build/riscperf/trace-%s-%d.jsonl", o.workload, o.seed)
	}
	res, err := runWorkload(o)
	if err != nil {
		fmt.Fprintln(stderr, "riscperf:", err)
		return 1
	}
	for _, f := range res.tally.failures {
		fmt.Fprintln(stderr, "riscperf: failed:", f)
	}
	w := bufio.NewWriter(stdout)
	enc := json.NewEncoder(w)
	err = enc.Encode(map[string]any{"env": environment(), "samples": res.samples})
	if err == nil {
		err = enc.Encode(res.summary)
	}
	if err == nil {
		err = w.Flush()
	}
	if err != nil {
		fmt.Fprintln(stderr, "riscperf:", err)
		return 1
	}
	return 0
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(options) (*outcome, error){
	"suite":     runSuiteWorkload,
	"serve_hot": runServeWorkload,
}

func workloadNames() []string {
	var out []string
	for n := range workloads {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

func runWorkload(o options) (*outcome, error) {
	f, ok := workloads[o.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (want one of %s)", o.workload, strings.Join(workloadNames(), ", "))
	}
	res, err := f(o)
	if err != nil {
		return nil, err
	}
	res.summary.Attempted = res.tally.attempted
	res.summary.Failed = res.tally.failed
	res.summary.Correct = res.tally.failed == 0 && res.tally.attempted > 0
	if err := checkMetrics(res.summary.Metrics, o.trace); err != nil {
		return nil, err
	}
	return res, nil
}

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summary is the result line the benchmark prints last.
type summary struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// outcome is everything one workload run produced.
type outcome struct {
	summary summary
	tally   tally
	samples map[string]int // sample count behind each timing metric
}

func newOutcome() *outcome {
	return &outcome{
		summary: summary{Metrics: map[string]metric{}},
		samples: map[string]int{},
	}
}

// set reports a metric. JSON has no infinities or NaN: an infinite time,
// which a failed operation gives, is reported as the largest float, and a
// ratio with nothing measured as 0; either way the run has failed.
func (r *outcome) set(name string, v float64) {
	switch {
	case math.IsNaN(v):
		v = 0
	case math.IsInf(v, 0):
		v = math.Copysign(math.MaxFloat64, v)
	}
	r.summary.Metrics[name] = metric{Value: v, Unit: unitOf(name)}
}

// tally counts operations attempted and failed. A failed operation is one
// whose output disagreed with its reference, or that errored or was refused.
type tally struct {
	mu        sync.Mutex
	attempted int64
	failed    int64
	failures  []string
}

// fail counts one failed operation and keeps the first few reasons.
func (t *tally) fail(err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted++
	t.failed++
	if len(t.failures) < 10 {
		t.failures = append(t.failures, err.Error())
	}
}

// add counts one operation whose check returned err.
func (t *tally) add(err error) {
	if err != nil {
		t.fail(err)
		return
	}
	t.mu.Lock()
	t.attempted++
	t.mu.Unlock()
}

// checkMetrics makes sure a run reports exactly the metrics BENCHMARK.json
// names for its mode, each with its unit.
func checkMetrics(got map[string]metric, traced bool) error {
	want := endToEndMetrics()
	if traced {
		want = perLayerMetrics()
	}
	var missing []string
	for _, s := range want {
		if m, ok := got[s.name]; !ok || m.Unit != s.unit {
			missing = append(missing, s.name)
		}
	}
	if len(missing) > 0 || len(got) != len(want) {
		return fmt.Errorf("metric set mismatch: %d reported, %d named, missing %v", len(got), len(want), missing)
	}
	return nil
}

// environment describes the host the numbers were measured on.
func environment() map[string]any {
	env := map[string]any{
		"go":         runtime.Version(),
		"godebug":    os.Getenv("GODEBUG"),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		// GOMAXPROCS while serve traffic runs (see driveServer).
		"serve_gomaxprocs": serveProcs,
		"nproc":            runtime.NumCPU(),
		"cpu":              cpuModel(),
		"commit":           "unknown",
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				env["commit"] = s.Value
			}
		}
	}
	return env
}

func cpuModel() string {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// median returns the middle value of xs (the mean of the two middle values
// for an even count). xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank p-th percentile of sorted.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(p/100*float64(len(sorted))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

func micros(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
