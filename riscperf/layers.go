package main

import (
	"context"
	"fmt"
	"runtime"

	"risc1"
	"risc1/internal/prog"
)

// Repetitions of each layer probe; each probe reports the median.
const (
	ladderReps  = 3
	compileReps = 5
	setupRuns   = 200 // timed empty runs per machine
	allocRuns   = 50  // empty runs whose allocations are counted; the least is kept
	coldSources = 100 // cold request sources the compile probe builds
)

// emptyProgram is the setup probe's guest: it returns at once, so a run
// costs only building and loading the machine.
const emptyProgram = "int main() { return 0; }"

// gcStats is the part of runtime.MemStats the gc layer reports.
type gcStats struct {
	cycles  uint32
	pauseNS uint64
	alloc   uint64
}

func readGC() gcStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return gcStats{cycles: ms.NumGC, pauseNS: ms.PauseTotalNs, alloc: ms.TotalAlloc}
}

func (g gcStats) sub(base gcStats) gcStats {
	return gcStats{cycles: g.cycles - base.cycles, pauseNS: g.pauseNS - base.pauseNS, alloc: g.alloc - base.alloc}
}

// report sets the gc metrics for a window in which ops operations ran.
func (g gcStats) report(res *outcome, ops int64) {
	ops = max(ops, 1)
	res.set("gc.cycles_per_kop", float64(g.cycles)*1000/float64(ops))
	res.set("gc.pause_ms", float64(g.pauseNS)/1e6)
	res.set("gc.alloc_bytes_per_op", float64(g.alloc)/float64(ops))
}

// layerSweep measures the layers every traced run reports whatever its
// workload: the engine ladder, the fixed cost of one run, and the compiler
// and assembler.
func layerSweep(o options, res *outcome, tr *tracer) error {
	if err := engineLadder(res, tr); err != nil {
		return err
	}
	if err := setupProbe(res, tr); err != nil {
		return err
	}
	return compileProbe(o, res, tr)
}

// engineLadder runs the suite on the windowed machine under each engine
// tier and reports each kernel's speed and the suite aggregate.
func engineLadder(res *outcome, tr *tracer) error {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	golden, err := loadGolden()
	if err != nil {
		return err
	}
	kernels := prog.All()
	imgs := make([]*risc1.Image, len(kernels))
	for i, k := range kernels {
		if imgs[i], err = risc1.CompileToImage(k.Source, risc1.RISCWindowed); err != nil {
			return fmt.Errorf("compile %s: %w", k.Name, err)
		}
	}
	for _, name := range engineNames {
		engine, err := risc1.ParseEngine(name)
		if err != nil {
			return err
		}
		op := tr.newOp()
		rung := tr.begin("layer.core."+name, op, 0, now())
		var suiteInstr uint64
		var suiteHost float64
		var compiled, sideExits, invalidations, traceInstr uint64
		for i, k := range kernels {
			j := &job{machine: "windowed", kernel: k.Name, console: prog.Expected(k.Name), want: golden["windowed/"+k.Name]}
			var secs []float64
			var instr uint64
			for rep := 0; rep < ladderReps; rep++ {
				t0 := now()
				info, err := risc1.RunImage(context.Background(), imgs[i], risc1.RunOptions{Engine: engine})
				t1 := now()
				if err == nil {
					err = j.check(info)
				}
				res.tally.add(err)
				if err != nil {
					continue
				}
				tr.record("risc1.RunImage", op, rung, t0.wall, t1.wall, t1.cpu-t0.cpu, info.Instructions)
				secs = append(secs, (t1.cpu - t0.cpu).Seconds())
				instr = info.Instructions
				if rep == 0 {
					compiled += info.TracesCompiled
					sideExits += info.TraceSideExits
					invalidations += info.TraceInvalidations
					traceInstr += info.TraceInstructions
				}
			}
			if len(secs) == 0 {
				return fmt.Errorf("%s engine: every run of %s failed", name, k.Name)
			}
			t := median(secs)
			res.set("core."+name+"."+k.Name+".mips", float64(instr)/t/1e6)
			suiteInstr += instr
			suiteHost += t
		}
		tr.end(rung, now(), suiteInstr)
		res.set("core."+name+".mips", float64(suiteInstr)/suiteHost/1e6)
		if name == "trace" {
			res.set("core.trace.compiled", float64(compiled))
			res.set("core.trace.side_exits", float64(sideExits))
			res.set("core.trace.invalidations", float64(invalidations))
			res.set("core.trace.instr_pct", float64(traceInstr)*100/float64(suiteInstr))
		}
	}
	return nil
}

// setupProbe measures the fixed cost of one run on every machine: an
// empty program's RunImage time, and the bytes and allocations it makes.
func setupProbe(res *outcome, tr *tracer) error {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	for _, m := range suiteMachines {
		name := m.probeName()
		img, err := risc1.CompileToImage(emptyProgram, m.target)
		if err != nil {
			return fmt.Errorf("compile empty program for %s: %w", name, err)
		}
		opt := risc1.RunOptions{Cores: m.cores}
		runOnce := func() error {
			info, err := risc1.RunImage(context.Background(), img, opt)
			if err == nil && info.Console != "" {
				err = fmt.Errorf("empty program on %s printed %q", name, info.Console)
			}
			res.tally.add(err)
			return err
		}
		op := tr.newOp()
		probe := tr.begin("layer.risc1.setup."+name, op, 0, now())
		var us []float64
		for i := 0; i < setupRuns; i++ {
			t0 := now()
			if err := runOnce(); err != nil {
				return err
			}
			t1 := now()
			tr.record("risc1.RunImage", op, probe, t0.wall, t1.wall, t1.cpu-t0.cpu, 0)
			us = append(us, micros(t1.cpu-t0.cpu))
		}
		tr.end(probe, now(), setupRuns)
		// Another goroutine, or the runtime itself, can allocate while a
		// run is measured; the least of many single runs is the run's own.
		var bytes, allocs uint64
		for i := 0; i < allocRuns; i++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			if err := runOnce(); err != nil {
				return err
			}
			runtime.ReadMemStats(&after)
			b, a := after.TotalAlloc-before.TotalAlloc, after.Mallocs-before.Mallocs
			if i == 0 || b < bytes {
				bytes = b
			}
			if i == 0 || a < allocs {
				allocs = a
			}
		}
		res.set("risc1.setup_us."+name, median(us))
		res.set("risc1.setup_bytes."+name, float64(bytes))
		res.set("risc1.setup_allocs."+name, float64(allocs))
	}
	return nil
}

// compileProbe times CompileCm and AssembleToImage for the windowed
// target, per kernel and on request sources that each carry a fresh
// nonce, as a server compiling every request it gets would see them.
func compileProbe(o options, res *outcome, tr *tracer) error {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	var ccSuite, asmSuite float64
	for _, k := range prog.All() {
		var ccUS, asmUS []float64
		for rep := 0; rep < compileReps; rep++ {
			c, a, err := compileTimed(k.Source, risc1.RISCWindowed, tr)
			if err != nil {
				return fmt.Errorf("%s: %w", k.Name, err)
			}
			ccUS, asmUS = append(ccUS, c), append(asmUS, a)
		}
		c, a := median(ccUS), median(asmUS)
		res.set("cc."+k.Name+".us", c)
		res.set("asm."+k.Name+".us", a)
		ccSuite += c
		asmSuite += a
	}
	res.set("cc.suite_ms", ccSuite/1000)
	res.set("asm.suite_ms", asmSuite/1000)

	g := newGenerator(o.seed, true)
	var ccUS, asmUS []float64
	for i := 0; i < coldSources; i++ {
		req := g.next()
		c, a, err := compileTimed(req.body.Source, req.target, tr)
		if err != nil {
			return fmt.Errorf("%s: %w", req.hotKey, err)
		}
		ccUS, asmUS = append(ccUS, c), append(asmUS, a)
	}
	res.set("cc.request_us", median(ccUS))
	res.set("asm.request_us", median(asmUS))
	return nil
}

// compileTimed compiles src to assembly and assembles it, returning each
// step's thread CPU time in microseconds. The caller is locked to its
// thread.
func compileTimed(src string, target risc1.Target, tr *tracer) (float64, float64, error) {
	op := tr.newOp()
	t0 := now()
	text, err := risc1.CompileCm(src, target, risc1.CompileOptions{})
	t1 := now()
	if err != nil {
		return 0, 0, err
	}
	tr.record("risc1.CompileCm", op, 0, t0.wall, t1.wall, t1.cpu-t0.cpu, 0)
	if _, err := risc1.AssembleToImage(text, target); err != nil {
		return 0, 0, err
	}
	t2 := now()
	tr.record("risc1.AssembleToImage", op, 0, t1.wall, t2.wall, t2.cpu-t1.cpu, 0)
	return micros(t1.cpu - t0.cpu), micros(t2.cpu - t1.cpu), nil
}
