package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"time"

	"risc1"
	"risc1/internal/prog"
)

// setupReps is how many times a serve run repeats its set-up; a suite run
// sets up once before its passes and once after each. setup_s is the
// slowest set-up but one, for the reason runSuiteWorkload gives.
const setupReps = 9

// stat is the simulated statistics of one kernel on one machine. They are
// properties of the simulated program, so a change that only makes the
// simulator faster must leave every one of them identical.
type stat struct {
	Instructions uint64 `json:"instructions"`
	// Cycles is the machine's headline count: microcycles on cisc, the
	// measured pipeline cycles on pipelined, the makespan on smp.
	Cycles uint64 `json:"cycles"`
	// RefCycles is the single-cycle model's count of a pipelined run.
	RefCycles uint64 `json:"ref_cycles,omitempty"`
}

func statOf(info *risc1.RunInfo) stat {
	s := stat{Instructions: info.Instructions, Cycles: info.Cycles}
	if info.Pipeline != nil {
		s.RefCycles = info.Pipeline.RefCycles
	}
	return s
}

// goldenJSON holds the statistics recorded from the simulator with
// --record-golden, keyed "<machine>/<kernel>".
//
//go:embed golden.json
var goldenJSON []byte

func loadGolden() (map[string]stat, error) {
	var g map[string]stat
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return nil, fmt.Errorf("golden.json: %w", err)
	}
	return g, nil
}

// job is one kernel compiled for one machine, with the outputs it must
// reproduce.
type job struct {
	machine string
	kernel  string
	img     *risc1.Image
	opt     risc1.RunOptions
	console string // from the Go reference implementation
	want    stat   // from golden.json
}

func (j *job) key() string { return j.machine + "/" + j.kernel }

// check compares one run's output with the job's references.
func (j *job) check(info *risc1.RunInfo) error {
	if info.Console != j.console {
		return fmt.Errorf("%s: console %q, want %q", j.key(), info.Console, j.console)
	}
	if got := statOf(info); got != j.want {
		return fmt.Errorf("%s: statistics %+v, want %+v", j.key(), got, j.want)
	}
	return nil
}

// suiteMachine is one machine's share of a pass.
type suiteMachine struct {
	name string
	jobs []*job
}

// compileSuite compiles every kernel for every machine. golden may be nil
// when the statistics are being recorded rather than checked.
func compileSuite(golden map[string]stat, expected map[string]string) ([]suiteMachine, error) {
	var out []suiteMachine
	for _, m := range suiteMachines {
		sm := suiteMachine{name: m.name}
		for _, k := range m.kernels() {
			img, err := risc1.CompileToImage(k.Source, m.target)
			if err != nil {
				return nil, fmt.Errorf("compile %s for %s: %w", k.Name, m.name, err)
			}
			j := &job{
				machine: m.name, kernel: k.Name, img: img,
				opt:     risc1.RunOptions{Cores: m.cores},
				console: expected[k.Name],
			}
			if golden != nil {
				w, ok := golden[j.key()]
				if !ok {
					return nil, fmt.Errorf("golden.json has no entry for %s", j.key())
				}
				j.want = w
			}
			sm.jobs = append(sm.jobs, j)
		}
		out = append(out, sm)
	}
	return out, nil
}

// expectedConsoles runs the Go reference implementation of every kernel.
func expectedConsoles() map[string]string {
	out := map[string]string{}
	for _, k := range append(append([]prog.Benchmark(nil), prog.All()...), prog.Parallel()...) {
		out[k.Name] = prog.Expected(k.Name)
	}
	return out
}

// jobRun is one successful run of a job in a pass.
type jobRun struct {
	job          *job
	instructions uint64
	cpu          time.Duration // thread CPU time of the RunImage call
}

// runPass runs every machine's kernels back to back, starting with machine
// first, checks each output, and returns the runs that passed the checks.
func runPass(suite []suiteMachine, first int, t *tally, tr *tracer) []jobRun {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	var runs []jobRun
	passOp := tr.newOp()
	passSpan := tr.begin("suite.pass", passOp, 0, now())
	for i := range suite {
		for _, j := range suite[(first+i)%len(suite)].jobs {
			t0 := now()
			info, err := risc1.RunImage(context.Background(), j.img, j.opt)
			t1 := now()
			if err == nil {
				tr.record("risc1.RunImage", passOp, passSpan, t0.wall, t1.wall, t1.cpu-t0.cpu, info.Instructions)
				err = j.check(info)
			}
			t.add(err)
			if err == nil {
				runs = append(runs, jobRun{job: j, instructions: info.Instructions, cpu: t1.cpu - t0.cpu})
			}
		}
	}
	tr.end(passSpan, now(), uint64(len(runs)))
	return runs
}

// setUpSuite compiles every image n times, returning the images of the
// last set-up and the process CPU time of each.
func setUpSuite(golden map[string]stat, expected map[string]string, n int) ([]suiteMachine, []float64, error) {
	var suite []suiteMachine
	var times []float64
	for i := 0; i < n; i++ {
		runtime.GC()
		start := processCPU()
		var err error
		if suite, err = compileSuite(golden, expected); err != nil {
			return nil, nil, err
		}
		times = append(times, (processCPU() - start).Seconds())
	}
	return suite, times, nil
}

// runSuiteWorkload is the suite workload: set up by compiling every image,
// then run passes until the run's time is up. The seed picks which machine
// each pass starts with; kernels keep their canonical order.
//
// Each (kernel, machine) run is timed by its slowest pass but one, and the
// metrics are taken over those times. On a shared host the benchmark runs
// at a steady speed with bursts of up to 1.5 times that speed, lasting a
// second or so, when a neighbour idles. The slow passes measure the steady
// speed, which repeated within 4-7% from run to run where the median, which
// moves with the share of bursts in a run, spread by 15-20%; leaving out
// the slowest pass keeps one stray pass from setting the time.
func runSuiteWorkload(o options) (*outcome, error) {
	golden, err := loadGolden()
	if err != nil {
		return nil, err
	}
	expected := expectedConsoles()
	res := newOutcome()

	suite, setups, err := setUpSuite(golden, expected, 1)
	if err != nil {
		return nil, err
	}

	rng := rand.New(rand.NewSource(o.seed))
	first := rng.Intn(len(suite))
	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	gc0 := readGC()
	cpu := map[*job][]float64{}
	instr := map[*job]uint64{}
	var ops, pass int
	// A traced run alternates untraced [0] and traced [1] passes; the
	// difference between the two is the tracing overhead.
	var passCPU [2][]float64
	deadline := time.Now().Add(time.Duration(o.seconds) * time.Second)
	for pass == 0 || time.Now().Before(deadline) {
		traced := o.trace && tracedWindow(pass)
		var ptr *tracer
		if traced {
			ptr = tr
		}
		var total time.Duration
		for _, r := range runPass(suite, (first+pass)%len(suite), &res.tally, ptr) {
			cpu[r.job] = append(cpu[r.job], r.cpu.Seconds())
			instr[r.job] = r.instructions
			total += r.cpu
			ops++
		}
		k := 0
		if traced {
			k = 1
		}
		passCPU[k] = append(passCPU[k], total.Seconds())
		pass++
		if !o.trace {
			// Set-ups between passes sample the host's speed over the
			// whole run, as the passes do.
			_, t, err := setUpSuite(golden, expected, 1)
			if err != nil {
				return nil, err
			}
			setups = append(setups, t...)
		}
	}
	gcDelta := readGC().sub(gc0)

	if !o.trace {
		var timesMS []float64
		var sum float64
		for _, sm := range suite {
			var machInstr uint64
			var machCPU float64
			for _, j := range sm.jobs {
				if len(cpu[j]) == 0 {
					timesMS = append(timesMS, math.Inf(1))
					continue
				}
				t := slowestButOne(cpu[j])
				timesMS = append(timesMS, t*1000)
				machInstr += instr[j]
				machCPU += t
			}
			res.set(sm.name+"_mips", float64(machInstr)/machCPU/1e6)
			sum += machCPU
		}
		setLatency(res, timesMS)
		res.set("rps", float64(len(cpu))/sum)
		res.set("setup_s", slowestButOne(setups))
		res.samples["passes"] = pass
		res.samples["setup_s"] = len(setups)
		return res, nil
	}

	gcDelta.report(res, int64(ops))
	overhead := 0.0
	if len(passCPU[0]) > 0 && len(passCPU[1]) > 0 {
		overhead = (median(passCPU[1])/median(passCPU[0]) - 1) * 100
	}
	res.set("trace.overhead_pct", overhead)
	// The suite sends no requests, so the serve layer is measured by a
	// short serve_hot probe after the passes.
	probe := o
	probe.seconds = serveProbeSeconds
	if err := serveLayerProbe(probe, res, tr); err != nil {
		return nil, err
	}
	if err := layerSweep(o, res, tr); err != nil {
		return nil, err
	}
	return res, tr.write(o.traceOut)
}

// slowestButOne returns the second-largest of xs, or the only value.
func slowestButOne(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[max(len(s)-2, 0)]
}

// setLatency reports the median and 99th percentile of operation times
// (ms). A failed operation counts as +Inf, above every limit.
func setLatency(res *outcome, timesMS []float64) {
	s := append([]float64(nil), timesMS...)
	sort.Float64s(s)
	res.set("p50_ms", percentile(s, 50))
	res.set("p99_ms", percentile(s, 99))
	res.samples["p50_ms"] = len(s)
	res.samples["p99_ms"] = len(s)
}

// recordGolden runs one pass and writes every kernel's simulated
// statistics. It is how golden.json was made; run it only to re-record
// after a change that is meant to alter simulated results.
func recordGolden(path string) error {
	suite, err := compileSuite(nil, expectedConsoles())
	if err != nil {
		return err
	}
	g := map[string]stat{}
	for _, sm := range suite {
		for _, j := range sm.jobs {
			info, err := risc1.RunImage(context.Background(), j.img, j.opt)
			if err != nil {
				return fmt.Errorf("%s: %w", j.key(), err)
			}
			if info.Console != j.console {
				return fmt.Errorf("%s: console %q, want %q", j.key(), info.Console, j.console)
			}
			g[j.key()] = statOf(info)
		}
	}
	raw, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}
