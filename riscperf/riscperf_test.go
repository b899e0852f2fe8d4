package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"
)

// benchmarkFile is the part of BENCHMARK.json the benchmark must agree with.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// TestBenchmarkFileNamesEveryMetric checks that BENCHMARK.json lists exactly
// the workloads and metrics the benchmark reports, with the same units.
func TestBenchmarkFileNamesEveryMetric(t *testing.T) {
	bf := readBenchmarkFile(t)
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if got, want := strings.Join(names, ","), strings.Join(workloadNames(), ","); got != want {
		t.Errorf("BENCHMARK.json workloads %s, benchmark runs %s", got, want)
	}
	compare := func(kind string, listed []spec, reported []spec) {
		if len(listed) != len(reported) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, benchmark reports %d", kind, len(listed), len(reported))
		}
		want := map[string]string{}
		for _, s := range reported {
			want[s.name] = s.unit
		}
		for _, s := range listed {
			if u, ok := want[s.name]; !ok || u != s.unit {
				t.Errorf("%s: BENCHMARK.json has %s in %q, benchmark reports unit %q", kind, s.name, s.unit, u)
			}
		}
	}
	var e2e, layer []spec
	for _, m := range bf.EndToEnd {
		e2e = append(e2e, spec{m.Name, m.Unit})
	}
	for _, m := range bf.PerLayer {
		layer = append(layer, spec{m.Name, m.Unit})
	}
	compare("end_to_end", e2e, endToEndMetrics())
	compare("per_layer", layer, perLayerMetrics())
}

// TestEveryMetricEmitted runs every workload briefly in both modes and
// checks the result line: correct, nothing failed, and every named metric
// present with its unit.
func TestEveryMetricEmitted(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, w := range workloadNames() {
		for _, trace := range []string{"0", "1"} {
			t.Run(w+"/trace="+trace, func(t *testing.T) {
				var out, errOut bytes.Buffer
				args := []string{"--workload", w, "--seed", "3", "--seconds", "1", "--trace", trace,
					"--trace-out", filepath.Join(t.TempDir(), "spans.jsonl")}
				if code := run(args, &out, &errOut); code != 0 {
					t.Fatalf("exit %d: %s", code, errOut.String())
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var s summary
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &s); err != nil {
					t.Fatal(err)
				}
				if !s.Correct || s.Failed != 0 || s.Attempted < 1 {
					t.Fatalf("correct=%v attempted=%d failed=%d: %s", s.Correct, s.Attempted, s.Failed, errOut.String())
				}
				want := endToEndMetrics()
				if trace == "1" {
					want = perLayerMetrics()
				}
				if len(s.Metrics) != len(want) {
					t.Errorf("%d metrics reported, want %d", len(s.Metrics), len(want))
				}
				for _, sp := range want {
					if m, ok := s.Metrics[sp.name]; !ok || m.Unit != sp.unit {
						t.Errorf("metric %s: got %+v, want unit %q", sp.name, m, sp.unit)
					}
				}
			})
		}
	}
}

// TestPerturbedGoldenFails checks that a run whose simulated statistics or
// console differ from the references is counted as a failed operation.
func TestPerturbedGoldenFails(t *testing.T) {
	golden, err := loadGolden()
	if err != nil {
		t.Fatal(err)
	}
	suite, err := compileSuite(golden, expectedConsoles())
	if err != nil {
		t.Fatal(err)
	}
	var j *job
	for _, sm := range suite {
		for _, c := range sm.jobs {
			if c.key() == "pipelined/fib" {
				j = c
			}
		}
	}
	if j == nil {
		t.Fatal("no pipelined/fib job")
	}
	one := []suiteMachine{{name: "pipelined", jobs: []*job{j}}}
	cases := []struct {
		name   string
		mutate func(*job)
	}{
		{"reference", func(*job) {}},
		{"instructions", func(j *job) { j.want.Instructions++ }},
		{"cycles", func(j *job) { j.want.Cycles-- }},
		{"ref_cycles", func(j *job) { j.want.RefCycles++ }},
		{"console", func(j *job) { j.console += "0" }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			saved := *j
			defer func() { *j = saved }()
			c.mutate(j)
			var tl tally
			runPass(one, 0, &tl, nil)
			wantFailed := int64(1)
			if c.name == "reference" {
				wantFailed = 0
			}
			if tl.attempted != 1 || tl.failed != wantFailed {
				t.Fatalf("attempted %d failed %d, want 1 and %d (%v)", tl.attempted, tl.failed, wantFailed, tl.failures)
			}
		})
	}
}

// TestWrongConsoleFromServerFails checks that a served reply whose console
// differs from the Go reference counts as failed, and a correct one not.
func TestWrongConsoleFromServerFails(t *testing.T) {
	s, err := startServer(nil)
	if err != nil {
		t.Fatal(err)
	}
	c := newClient()
	defer func() {
		c.CloseIdleConnections()
		if err := s.close(); err != nil {
			t.Error(err)
		}
	}()
	g := newGenerator(5, true)
	for i := 0; i < 10; i++ {
		req := g.next()
		if err := s.post(c, req, 0, false).err; err != nil {
			t.Fatalf("%s: %v", req.hotKey, err)
		}
		req.want += "1"
		var tl tally
		err := s.post(c, req, 0, false).err
		tl.add(err)
		if err == nil || errors.Is(err, errShed) || tl.failed != 1 {
			t.Fatalf("%s: perturbed console: err %v, failed %d", req.hotKey, err, tl.failed)
		}
	}
}

// TestGeneratorIsSeeded checks that a seed fixes the request stream, that
// another seed changes it, and that cold nonces never repeat.
func TestGeneratorIsSeeded(t *testing.T) {
	draw := func(seed int64) []request {
		g := newGenerator(seed, true)
		out := make([]request, 200)
		for i := range out {
			out[i] = g.next()
		}
		return out
	}
	a, b, other := draw(1), draw(1), draw(2)
	same, differ := true, false
	for i := range a {
		same = same && a[i].body == b[i].body
		differ = differ || a[i].body != other[i].body
	}
	if !same || !differ {
		t.Errorf("same seed repeats: %v, other seed differs: %v", same, differ)
	}
	seen := map[string]bool{}
	for _, r := range a {
		if seen[r.body.Source+r.body.Target] {
			t.Fatalf("cold source repeated: %s", r.hotKey)
		}
		seen[r.body.Source+r.body.Target] = true
	}
}

// TestGeneratorMixIsFixed checks that every seed sends each hot request
// equally often: the seed orders the requests but does not change the mix.
func TestGeneratorMixIsFixed(t *testing.T) {
	rounds := 4
	for _, seed := range []int64{1, 2} {
		g := newGenerator(seed, false)
		n := map[string]int{}
		for i := 0; i < rounds*len(hotRequests()); i++ {
			n[g.next().hotKey]++
		}
		for _, req := range hotRequests() {
			if n[req.hotKey] != rounds {
				t.Errorf("seed %d: %s sent %d times, want %d", seed, req.hotKey, n[req.hotKey], rounds)
			}
		}
	}
}

// TestFailedRunStillEncodes checks that the infinite time a failed
// operation gives still makes a valid result line.
func TestFailedRunStillEncodes(t *testing.T) {
	res := newOutcome()
	setLatency(res, []float64{1, math.Inf(1)})
	res.set("rps", math.NaN())
	if _, err := json.Marshal(res.summary); err != nil {
		t.Fatal(err)
	}
	if got := res.summary.Metrics["p99_ms"].Value; got != math.MaxFloat64 {
		t.Errorf("p99_ms with a failed operation = %v, want the largest float", got)
	}
}

// TestHistogramPercentiles checks the serve histogram against exact
// nearest-rank percentiles, and that a rank on a failed operation is
// infinite.
func TestHistogramPercentiles(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	h := newHistogram()
	var ms []float64
	for i := 0; i < 5000; i++ {
		d := time.Duration(50e3 + rng.ExpFloat64()*400e3)
		h.add(d)
		ms = append(ms, float64(d)/1e6)
	}
	sort.Float64s(ms)
	for _, p := range []float64{1, 50, 99} {
		got, want := h.percentile(p), percentile(ms, p)
		if math.Abs(got/want-1) > 0.004 {
			t.Errorf("p%v = %v, want %v within 0.4%%", p, got, want)
		}
	}
	for i := 0; i < 100; i++ {
		h.addInf()
	}
	if got := h.percentile(99); !math.IsInf(got, 1) {
		t.Errorf("p99 with 2%% failed = %v, want +Inf", got)
	}
}
