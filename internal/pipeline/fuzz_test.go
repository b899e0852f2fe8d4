package pipeline

import (
	"errors"
	"reflect"
	"testing"

	"risc1/internal/asm"
	"risc1/internal/core"
	"risc1/internal/enginefuzz"
)

// runEngine loads img into a fresh pipelined machine whose core runs under
// engine e and runs it.
func runEngine(t *testing.T, cfg core.Config, e core.Engine, p Policy, img *asm.Image) (*Machine, error) {
	t.Helper()
	cfg.Engine = e
	m := New(cfg, p)
	if err := m.Load(img); err != nil {
		t.Fatalf("load: %v", err)
	}
	return m, m.Run()
}

// compareRuns requires the default-engine run mb to be indistinguishable
// from the per-instruction oracle run ms: the same timing Result, the same
// fault, the same architectural state and statistics.
func compareRuns(t *testing.T, ms, mb *Machine, errS, errB error) {
	t.Helper()
	if (errS == nil) != (errB == nil) || (errS != nil && errS.Error() != errB.Error()) {
		t.Fatalf("error mismatch:\nstep:    %v\ndefault: %v", errS, errB)
	}
	var es, eb *core.RunError
	if errors.As(errS, &es) != errors.As(errB, &eb) {
		t.Fatalf("error type mismatch:\nstep:    %v\ndefault: %v", errS, errB)
	}
	if es != nil && (es.PC != eb.PC || es.Cycles != eb.Cycles) {
		t.Fatalf("fault site: step pc=%#x cyc=%d, default pc=%#x cyc=%d",
			es.PC, es.Cycles, eb.PC, eb.Cycles)
	}
	if rs, rb := ms.Result(), mb.Result(); !reflect.DeepEqual(rs, rb) {
		t.Fatalf("timing diverged:\nstep:    %+v\ndefault: %+v", rs, rb)
	}
	cs, cb := ms.CPU(), mb.CPU()
	if cs.PC() != cb.PC() || cs.Halted() != cb.Halted() || cs.Flags() != cb.Flags() ||
		cs.Regs.CWP() != cb.Regs.CWP() {
		t.Fatalf("machine state diverged: step pc=%#x halted=%v flags=%+v cwp=%d, default pc=%#x halted=%v flags=%+v cwp=%d",
			cs.PC(), cs.Halted(), cs.Flags(), cs.Regs.CWP(), cb.PC(), cb.Halted(), cb.Flags(), cb.Regs.CWP())
	}
	for r := uint8(0); r < 32; r++ {
		if cs.Reg(r) != cb.Reg(r) {
			t.Fatalf("r%d: step %#x, default %#x", r, cs.Reg(r), cb.Reg(r))
		}
	}
	if ss, sb := cs.Stats(), cb.Stats(); !reflect.DeepEqual(ss, sb) {
		t.Fatalf("stats diverged:\nstep:    %+v\ndefault: %+v", ss, sb)
	}
	if cs.Console() != cb.Console() {
		t.Fatalf("console: step %q, default %q", cs.Console(), cb.Console())
	}
}

// FuzzPipelineEquivalence is the differential fuzzer for block-memoized
// timing: every program of the engine fuzzers' generator runs on the
// pipelined machine under the per-instruction oracle (EngineStep) and under
// the default engine (compiled blocks priced through the memo), under both
// control policies and at three cycle limits, and the two runs must agree
// on everything observable. The seeds reach window traps at block
// terminators, faults inside blocks and delay slots, stores into compiled
// code and cycle limits that cut blocks short.
func FuzzPipelineEquivalence(f *testing.F) {
	for _, s := range enginefuzz.Seeds() {
		f.Add(s.Code, s.Limit)
	}
	f.Fuzz(func(t *testing.T, code []byte, limit uint32) {
		img, ok := enginefuzz.Image(code)
		if !ok {
			return
		}
		for _, mc := range enginefuzz.Limits(limit) {
			cfg := core.Config{MemSize: enginefuzz.MemSize, MaxCycles: mc}
			for _, p := range []Policy{PolicyDelayed, PolicySquash} {
				ms, errS := runEngine(t, cfg, core.EngineStep, p, img)
				mb, errB := runEngine(t, cfg, core.EngineAuto, p, img)
				compareRuns(t, ms, mb, errS, errB)
			}
		}
	})
}
