package pipeline

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"risc1/internal/asm"
	"risc1/internal/core"
)

// randomHazardProgram builds a seeded program dense in pipeline hazards: a
// counted loop whose body mixes ALU operations (some setting flags), loads
// and stores off the stack pointer, flag reads and forward branches that
// rejoin the body — so the same block is entered from different
// predecessors, in different timing states — plus a recursive call deep
// enough to take window traps at block terminators. Destinations avoid the
// loop counter r1, the stack pointer r9 and the link r25.
func randomHazardProgram(r *rand.Rand) string {
	dsts := []int{2, 3, 4, 5, 6, 7, 8, 10, 11, 12, 16, 17, 18, 19, 20, 26, 27}
	reg := func() int { return r.Intn(32) }
	dst := func() int { return dsts[r.Intn(len(dsts))] }
	bang := func() string {
		if r.Intn(3) == 0 {
			return "!"
		}
		return ""
	}
	op := func() string {
		switch r.Intn(10) {
		case 0, 1:
			alu := []string{"add", "sub", "and", "or", "xor"}[r.Intn(5)]
			return fmt.Sprintf("%s%s r%d,r%d,r%d", alu, bang(), reg(), reg(), dst())
		case 2:
			sh := []string{"sll", "srl", "sra"}[r.Intn(3)]
			return fmt.Sprintf("%s%s r%d,#%d,r%d", sh, bang(), reg(), r.Intn(32), dst())
		case 3, 4:
			ld := []string{"ldl", "ldl", "ldsu", "ldbu"}[r.Intn(4)]
			return fmt.Sprintf("%s%s (r9)#-%d,r%d", ld, bang(), 4*(1+r.Intn(16)), dst())
		case 5:
			st := []string{"stl", "sts", "stb"}[r.Intn(3)]
			return fmt.Sprintf("%s r%d,(r9)#-%d", st, reg(), 4*(1+r.Intn(16)))
		case 6:
			return fmt.Sprintf("getpsw r%d", dst())
		case 7:
			return "add r0,#0,r0" // nop
		default:
			return fmt.Sprintf("add%s r%d,#%d,r%d", bang(), reg(), r.Intn(64)-32, dst())
		}
	}
	conds := []string{"eq", "ne", "lt", "ge", "gt", "le", "hi", "lo", "mi", "pl"}
	var b strings.Builder
	fmt.Fprintf(&b, "main:\tadd r0,#%d,r1\n", 20+r.Intn(40))
	b.WriteString("loop:\n")
	for i, n := 0, 4+r.Intn(10); i < n; i++ {
		if r.Intn(4) == 0 {
			fmt.Fprintf(&b, "\tb%s skip%d\n\t%s\n", conds[r.Intn(len(conds))], i, op())
			for j, k := 0, r.Intn(4); j < k; j++ {
				fmt.Fprintf(&b, "\t%s\n", op())
			}
			fmt.Fprintf(&b, "skip%d:\n", i)
		}
		fmt.Fprintf(&b, "\t%s\n", op())
	}
	fmt.Fprintf(&b, "\tadd r0,#%d,r10\n\tcallr r25,rec\n\t%s\n", r.Intn(12), "add r0,#0,r0")
	fmt.Fprintf(&b, "\tsub! r1,#1,r1\n\tbne loop\n\t%s\n", op())
	b.WriteString("\tret r25,#8\n\tnop\n")
	b.WriteString("rec:\n")
	for i, n := 0, r.Intn(4); i < n; i++ {
		fmt.Fprintf(&b, "\t%s\n", op())
	}
	b.WriteString("\tcmp r26,#0\n\tble recdone\n\tnop\n\tsub r26,#1,r10\n\tcallr r25,rec\n\tnop\n")
	b.WriteString("recdone:\tret r25,#8\n\tnop\n")
	return b.String()
}

// TestRandomHazardEquivalence runs seeded hazard-dense programs under the
// per-instruction oracle and the default engine, whole and cut short at a
// random cycle, and requires identical timing and machine state. It is the
// deterministic companion of FuzzPipelineEquivalence: real block structure,
// many entry states per block, and window traps at every depth.
func TestRandomHazardEquivalence(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	for trial := 0; trial < 150; trial++ {
		src := randomHazardProgram(r)
		img, err := asm.Assemble(src)
		if err != nil {
			t.Fatalf("trial %d: %v\n%s", trial, err, src)
		}
		// A flat machine shares one r25 between caller and callee, so its
		// runs wander; the cycle limit bounds them.
		cfg := core.Config{Windows: 3 + r.Intn(6), Flat: r.Intn(4) == 0, MaxCycles: 200000}
		if trial%3 == 0 {
			cfg.MaxCycles = uint64(1 + r.Intn(20000))
		}
		for _, p := range []Policy{PolicyDelayed, PolicySquash} {
			ms, errS := runEngine(t, cfg, core.EngineStep, p, img)
			mb, errB := runEngine(t, cfg, core.EngineAuto, p, img)
			if t.Failed() {
				return
			}
			t.Run(fmt.Sprintf("trial%d/%v", trial, p), func(t *testing.T) {
				compareRuns(t, ms, mb, errS, errB)
				if t.Failed() {
					t.Logf("program:\n%s", src)
				}
			})
		}
	}
}
