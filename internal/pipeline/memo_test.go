package pipeline

import (
	"math/rand"
	"testing"

	"risc1/internal/core"
	"risc1/internal/prog"
)

// TestMemoCoversSuite pins the property the block memo exists for: on the
// suite kernels under the default engine, (nearly) every instruction
// retires inside a whole compiled block, and (nearly) every block is
// priced by a memo hit rather than by replaying it.
func TestMemoCoversSuite(t *testing.T) {
	cfg := core.Config{SaveStackBytes: 64 << 10}
	var hits, misses, inBlocks, total uint64
	for _, k := range prog.All() {
		m := New(cfg, PolicyDelayed)
		var whole uint64
		price := m.cpu.Retire
		m.cpu.Retire = func(r *core.Retired) {
			if r.Full && r.Block != 0 {
				whole += uint64(len(r.Insts))
			}
			price(r)
		}
		if err := m.Load(compileBench(t, k)); err != nil {
			t.Fatal(err)
		}
		if err := m.Run(); err != nil {
			t.Fatalf("%s: %v", k.Name, err)
		}
		n := m.Result().Instructions
		t.Logf("%-9s %9d instructions, %5.1f%% in whole blocks, %8d hits %6d misses (%.1f%%)",
			k.Name, n, 100*float64(whole)/float64(n), m.memo.hits, m.memo.misses,
			100*float64(m.memo.hits)/float64(m.memo.hits+m.memo.misses))
		hits, misses, inBlocks, total = hits+m.memo.hits, misses+m.memo.misses, inBlocks+whole, total+n
	}
	share, rate := float64(inBlocks)/float64(total), float64(hits)/float64(hits+misses)
	t.Logf("suite: %.2f%% of instructions in whole blocks, %.2f instructions per block, memo hit rate %.2f%%",
		100*share, float64(inBlocks)/float64(hits+misses), 100*rate)
	if share < 0.99 {
		t.Errorf("only %.2f%% of suite instructions retired in whole blocks", 100*share)
	}
	if rate < 0.95 {
		t.Errorf("memo hit rate %.2f%%, want at least 95%%", 100*rate)
	}
}

// TestWinKeyRoundTrip checks that a packed window key rebuilds a window
// that packs back to the same key: fills start from exactly the state the
// key names.
func TestWinKeyRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for i := 0; i < 10000; i++ {
		var tm timer
		issue := uint64(100 + r.Intn(10))
		ex := issue
		for j := range tm.win {
			ex -= uint64(1 + r.Intn(3))
			tm.win[j] = inflight{ex: ex, dst: int32(r.Intn(138)), kind: uint8(r.Intn(8))}
		}
		k := tm.winKey(issue)
		back := timer{win: unpackWin(k, issue)}
		if k2 := back.winKey(issue); k2 != k {
			t.Fatalf("window %+v: key %#x, rebuilt %+v keys %#x", tm.win, k, back.win, k2)
		}
	}
}
