//go:build !race

// These tests depend on released memories actually coming back from the
// pool. The race detector makes sync.Pool drop a share of them on purpose,
// and it would add nothing here: TestRunImageHammer covers the concurrent
// hand-off under -race.

package risc1_test

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"risc1"
	"risc1/internal/asm"
	"risc1/internal/core"
	"risc1/internal/mem"
	"risc1/internal/prog"
	"risc1/internal/smp"
)

// TestRunImageEmptyAllocBound guards the fixed cost of a run: once warm, an
// empty windowed RunImage reuses a pooled memory and must allocate no more
// than 16 KiB, against the 1 MiB a freshly allocated RAM would cost.
func TestRunImageEmptyAllocBound(t *testing.T) {
	img, err := risc1.CompileToImage("int main() { return 0; }", risc1.RISCWindowed)
	if err != nil {
		t.Fatal(err)
	}
	run := func() {
		if _, err := risc1.RunImage(context.Background(), img, risc1.RunOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 20; i++ {
		run()
	}
	const runs = 500
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		run()
	}
	runtime.ReadMemStats(&after)
	perRun := (after.TotalAlloc - before.TotalAlloc) / runs
	t.Logf("empty windowed run: %d B allocated per run", perRun)
	if perRun > 16<<10 {
		t.Errorf("empty windowed RunImage allocates %d B per run, want <= %d", perRun, 16<<10)
	}
}

// ramTop is the RAM size of m's machine. A four-core machine's memories
// pool separately from the single-core machines' 1 MiB.
func ramTop(m poolMachine) uint32 {
	if m.cores > 1 {
		return 1<<20 + 3*(64<<10+smp.DefaultWorkerStackBytes)
	}
	return 1 << 20
}

// windowed is the windowed machine with m's RAM size, for the disruptors
// written in RISC I assembly or run on the windowed target.
func windowed(m poolMachine) poolMachine {
	return poolMachine{m.name, risc1.RISCWindowed, m.cores}
}

// scribbleSource writes a marker word at both ends of every 4 KiB page of
// RAM from the second page up to top, takes test-and-set lock 0 and never
// releases it, then stores one word at top: an OutOfMem fault at the top of
// RAM, with every page dirty and the lock page held.
func scribbleSource(top uint32) string {
	return fmt.Sprintf(`
main:	li #4096,r2
	li #%d,r3
	li #-559038737,r1
	li #4096,r4
loop:	stl r1,(r2)#0
	stl r1,(r2)#4092
	add r2,r4,r2
	cmp r2,r3
	blt loop
	nop
	ldl (r0)#-768,r5
	stl r1,(r3)#0
	ret r25,#8
	nop
`, top)
}

// probeSource ORs together the words scribbleSource writes and the old
// value of lock 0, releases the lock, and prints the result: 0 on a memory
// as clean as a fresh one.
func probeSource(top uint32) string {
	return fmt.Sprintf(`
main:	li #4096,r2
	li #%d,r3
	li #4096,r4
	ldl (r0)#-768,r6
	stl r0,(r0)#-768
loop:	ldl (r2)#0,r5
	or r6,r5,r6
	ldl (r2)#4092,r5
	or r6,r5,r6
	add r2,r4,r2
	cmp r2,r3
	blt loop
	nop
	stl r6,(r0)#-252
	ret r25,#8
	nop
`, top)
}

// selfModSource patches an instruction it has already executed, runs the
// patched word and prints its result (77).
const selfModSource = `
main:	li #donor,r3
	ldl (r3)#0,r1
	li #patch,r4
patch:	add r0,#7,r2
	cmp r2,#7
	bne done
	nop
	stl r1,(r4)#0
	b patch
	nop
done:	stl r2,(r0)#-252
	ret r25,#8
	nop
donor:	add r0,#77,r2
`

// floodSource prints past the console's retained limit.
const floodSource = `int main() { int i; for (i = 0; i < 200000; i++) putint(1234567); return 0; }`

// disruptor is a run that leaves state behind in the memory it releases.
type disruptor struct {
	name string
	run  func(t *testing.T, m poolMachine)
}

// disruptors returns the interleaved runs. Each one runs on the RAM size of
// the machine under test, so it dirties the memory that machine reuses.
func disruptors(kernel prog.Benchmark) []disruptor {
	return []disruptor{
		{"out-of-mem at top of RAM", func(t *testing.T, m poolMachine) {
			m = windowed(m)
			top := ramTop(m)
			img := mustImage(t, scribbleSource(top), m.target, true)
			_, err := risc1.RunImage(context.Background(), img, risc1.RunOptions{Cores: m.cores})
			var f *mem.Fault
			if !errors.As(err, &f) || !f.OutOfMem || f.Addr != top {
				t.Fatalf("scribble run: got %v, want an out-of-memory store at %#x", err, top)
			}
		}},
		{"injected fault", func(t *testing.T, m poolMachine) {
			// RunImage has no fault-injection option, so drive a core
			// directly and release its memory the way RunImage would,
			// with the plan, a console sink and a console limit armed.
			top := ramTop(m)
			img, err := asm.Assemble(scribbleSource(top))
			if err != nil {
				t.Fatal(err)
			}
			c := core.New(core.Config{MemSize: int(top), SaveStackBytes: 64 << 10})
			defer c.Mem.Release()
			if err := c.Load(img); err != nil {
				t.Fatal(err)
			}
			c.Mem.SetFaultPlan(&mem.FaultPlan{FailNthWrite: 200})
			c.Mem.SetConsoleSink(func(string) { t.Error("console sink outlived its run") })
			c.Mem.SetConsoleLimit(1)
			var f *mem.Fault
			if err := c.Run(); !errors.As(err, &f) || !f.Injected {
				t.Fatalf("injected run: got %v, want an injected fault", err)
			}
		}},
		{"self-modifying code", func(t *testing.T, m poolMachine) {
			img := mustImage(t, selfModSource, windowed(m).target, true)
			info, err := risc1.RunImage(context.Background(), img, risc1.RunOptions{Cores: m.cores})
			if err != nil || info.Console != "77" {
				t.Fatalf("self-modifying run: console %q, err %v; want 77", consoleOf(info), err)
			}
		}},
		{"console truncated", func(t *testing.T, m poolMachine) {
			img := mustImage(t, floodSource, windowed(m).target, false)
			info, err := risc1.RunImage(context.Background(), img, risc1.RunOptions{Cores: m.cores})
			if err != nil || !info.ConsoleTruncated {
				t.Fatalf("flood run: err %v, truncated %v; want a truncated console", err, info != nil && info.ConsoleTruncated)
			}
		}},
		{"monitored", func(t *testing.T, m poolMachine) {
			img := mustImage(t, kernel.Source, m.target, false)
			var live strings.Builder
			mon := &risc1.RunMonitor{
				Console:  func(s string) { live.WriteString(s) },
				Progress: func(uint64, uint64) {},
			}
			info, err := risc1.RunImage(context.Background(), img, risc1.RunOptions{Cores: m.cores, Monitor: mon})
			if err != nil || live.String() != prog.Expected(kernel.Name) || info.Console != live.String() {
				t.Fatalf("monitored run: err %v, live %q, console %q", err, live.String(), consoleOf(info))
			}
		}},
	}
}

func consoleOf(info *risc1.RunInfo) string {
	if info == nil {
		return ""
	}
	return info.Console
}

// TestPooledRunsMatchFirstRuns runs every suite kernel on every machine
// (and the parallel kernels at four cores), then runs each kernel again
// after one of the disruptors has released a dirty memory of the same size.
// Every later run must report exactly what the first run did, and a probe
// run after it must find the memory it inherits all zero and unlocked.
func TestPooledRunsMatchFirstRuns(t *testing.T) {
	for _, m := range poolMachines {
		t.Run(m.name, func(t *testing.T) {
			kernels := prog.All()
			if m.cores > 1 {
				kernels = append(append([]prog.Benchmark(nil), kernels...), prog.Parallel()...)
			}
			opt := risc1.RunOptions{Cores: m.cores}
			probe := mustImage(t, probeSource(ramTop(m)), risc1.RISCWindowed, true)
			first := map[string]*risc1.RunInfo{}
			images := map[string]*risc1.Image{}
			for _, k := range kernels {
				images[k.Name] = mustImage(t, k.Source, m.target, false)
				info, err := risc1.RunImage(context.Background(), images[k.Name], opt)
				if err != nil {
					t.Fatalf("%s: first run: %v", k.Name, err)
				}
				if info.Console != prog.Expected(k.Name) {
					t.Fatalf("%s: first run printed %q, want %q", k.Name, info.Console, prog.Expected(k.Name))
				}
				first[k.Name] = info
			}
			for i, k := range kernels {
				d := disruptors(k)[i%5]
				d.run(t, m)
				info, err := risc1.RunImage(context.Background(), images[k.Name], opt)
				if err != nil {
					t.Fatalf("%s after %s: %v", k.Name, d.name, err)
				}
				if !reflect.DeepEqual(info, first[k.Name]) {
					t.Errorf("%s after %s: run differs from the first\n got %+v\nwant %+v",
						k.Name, d.name, info, first[k.Name])
				}
				info, err = risc1.RunImage(context.Background(), probe, risc1.RunOptions{Cores: m.cores})
				if err != nil || info.Console != "0" {
					t.Fatalf("probe after %s and %s: console %q, err %v; want 0", d.name, k.Name, consoleOf(info), err)
				}
			}
		})
	}
}
