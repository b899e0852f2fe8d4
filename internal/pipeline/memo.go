// Block memoization, after FastSim (Schnarr & Larus, ASPLOS '98): the
// timing a compiled block adds is a pure function of the block and of the
// little timing state it starts from, so the same block entered in the
// same state costs the same cycles, stalls and forwards every time. The
// first time a (block, state) pair is seen the memo fills an entry by
// running the per-instruction step over the block from that state; every
// later visit applies the entry's counter deltas and exit window in O(1).
// There is one timing model: entries are only ever produced by
// timer.step.
//
// The key is everything the step reads over a whole block:
//
//   - the block's identity (core.Retired.Block). Not its start PC: a store
//     into code recompiles the block at the same address;
//   - the three-entry window rebased to the block's issue cycle, with what
//     cannot matter dropped. Pending stall cycles only delay the issue, so
//     rebasing to the issue cycle folds them in. A retirement at distance
//     two or more can no longer cause a load-use stall, so its load bit
//     goes; at distance three only its hold on the memory port survives;
//     from four on nothing does;
//   - the window base the block entered in, which with the identity fixes
//     every physical register it reads or writes;
//   - whether its transfer was taken, and the window traps that transfer
//     raised. A halting return is a prefix, never a whole block.
//
// A block is only memoized when it starts with no delay slot pending,
// which the block engine guarantees (it never starts a block in a slot).
package pipeline

import "risc1/internal/core"

const (
	// fillIssue is the issue cycle a fill starts its block at; any value
	// of at least four keeps the rebased window's EX cycles positive.
	fillIssue = 16
	// memoWays bounds the entry states remembered per block; a block seen
	// in more states than that replaces its entries round-robin.
	memoWays = 8
	// memoBlocks bounds the blocks memoized at once. Only code that keeps
	// recompiling itself reaches it; newer blocks then evict older ones.
	memoBlocks = 1 << 14
)

// memoKey is a block's complete timing input (see the file comment),
// packed into two words so a lookup compares two integers. win holds the
// three window entries, 21 bits each: the physical register written (16
// bits), the distance from the entry's EX cycle to the block's issue cycle
// (2 bits, 0 for an entry that can no longer matter) and its kind bits.
// ctx holds the window base (16 bits), the taken bit and the overflow and
// underflow counts (20 bits each; a block's one transfer traps at most
// once).
type memoKey struct {
	win, ctx uint64
}

// Field layout of a packed window entry and of the context word.
const (
	slotBits  = 21
	relShift  = 16
	kindShift = 18
	takenBit  = 1 << 16
	ovfShift  = 17
	unfShift  = 37
	// physLimit bounds the physical register indices a key can hold: only
	// files of more than 4000 windows exceed it, and they are not memoized.
	physLimit = 1 << 16
)

// memoEntry is one block's timing effect from one entry state.
type memoEntry struct {
	key     memoKey
	delta   Result      // counter increments; Policy and Cycles unused
	dEx     uint64      // exit EX cycle minus the issue cycle
	pending uint64      // stall cycles charged to the next issue
	win     [3]inflight // exit window, EX cycles relative to the issue cycle

	slotPending, slotTaken bool
}

// blockMemo holds one block's entries.
type blockMemo struct {
	id      uint32
	entries []memoEntry
	next    int // round-robin victim once the ways are full
}

// memo maps block identities to their entries.
type memo struct {
	blocks       []*blockMemo
	hits, misses uint64
}

func (mm *memo) reset() {
	clear(mm.blocks)
	mm.blocks = mm.blocks[:0]
	mm.hits, mm.misses = 0, 0
}

// winKey canonicalizes and packs the window for a block issuing at cycle
// issue.
func (t *timer) winKey(issue uint64) uint64 {
	var k uint64
	for i := range t.win {
		w := &t.win[i]
		var s uint64
		switch rel := issue - w.ex; {
		case rel == 1:
			s = uint64(w.dst) | uint64(w.kind)<<kindShift
		case rel == 2:
			s = uint64(w.dst) | uint64(w.kind&^isLoad)<<kindShift
		case rel == 3:
			s = uint64(w.kind&isMem) << kindShift
		}
		if s != 0 { // else nothing is left that a later instruction could see
			k |= (s | (issue-w.ex)<<relShift) << (i * slotBits)
		}
	}
	return k
}

// unpackWin rebuilds the window a packed key describes, issuing at cycle
// issue.
func unpackWin(k, issue uint64) (win [3]inflight) {
	for i := range win {
		s := k >> (i * slotBits) & (1<<slotBits - 1)
		if s == 0 {
			continue
		}
		win[i] = inflight{
			ex:   issue - s>>relShift&3,
			dst:  int32(s & (physLimit - 1)),
			kind: uint8(s >> kindShift),
		}
	}
	return win
}

func bit(b bool, v uint64) uint64 {
	if b {
		return v
	}
	return 0
}

// lookup returns the memo of block id, starting an empty one when the id
// is new. The table is direct-mapped on the id: ids are dense from 1, so
// it only wraps, evicting, for code that keeps recompiling itself.
func (mm *memo) lookup(id uint32) *blockMemo {
	i := int(id % memoBlocks)
	if i >= len(mm.blocks) {
		n := min(max(2*len(mm.blocks), i+1, 64), memoBlocks)
		mm.blocks = append(mm.blocks, make([]*blockMemo, n-len(mm.blocks))...)
	}
	bm := mm.blocks[i]
	if bm == nil {
		bm = &blockMemo{}
		mm.blocks[i] = bm
	}
	if bm.id != id {
		bm.id, bm.entries, bm.next = id, bm.entries[:0], 0
	}
	return bm
}

// retireBlock prices one whole compiled block through the memo.
func (m *Machine) retireBlock(r *core.Retired) {
	t := &m.t
	issue := t.ex + 1 + t.pending
	key := memoKey{
		win: t.winKey(issue),
		ctx: uint64(r.Base) | bit(r.Taken, takenBit) |
			r.Overflows<<ovfShift | r.Underflows<<unfShift,
	}
	bm := m.memo.lookup(r.Block)
	for i := range bm.entries {
		if e := &bm.entries[i]; e.key == key {
			m.memo.hits++
			t.apply(e, issue)
			return
		}
	}
	m.memo.misses++
	e := m.fill(r, key)
	if len(bm.entries) < memoWays {
		bm.entries = append(bm.entries, e)
	} else {
		bm.entries[bm.next] = e
		bm.next = (bm.next + 1) % memoWays
	}
	t.apply(&e, issue)
}

// fill computes a block's entry by running the per-instruction step over
// it from the state key describes, issuing at fillIssue.
func (m *Machine) fill(r *core.Retired, key memoKey) memoEntry {
	t := timer{
		regs: m.t.regs, policy: m.t.policy,
		ex: fillIssue - 1, win: unpackWin(key.win, fillIssue),
	}
	m.replay(&t, r)
	e := memoEntry{
		key: key, delta: t.res, dEx: t.ex - fillIssue, pending: t.pending,
		slotPending: t.slotPending, slotTaken: t.slotTaken,
	}
	for i, w := range t.win {
		// Relative to the issue cycle; older entries wrap below zero, and
		// dead ones (never matched, whatever their cycle) wrap anywhere.
		w.ex -= fillIssue
		e.win[i] = w
	}
	return e
}

// apply advances t by e for a block issuing at cycle issue.
func (t *timer) apply(e *memoEntry, issue uint64) {
	t.res.add(&e.delta)
	t.ex = issue + e.dEx
	t.pending = e.pending
	t.win = e.win
	for i := range t.win {
		t.win[i].ex += issue
	}
	t.slotPending, t.slotTaken = e.slotPending, e.slotTaken
}

// add accumulates d's counters into r (Policy and Cycles excepted).
func (r *Result) add(d *Result) {
	r.Instructions += d.Instructions
	r.LoadUseStallCycles += d.LoadUseStallCycles
	r.WindowStallCycles += d.WindowStallCycles
	r.FlushBubbleCycles += d.FlushBubbleCycles
	r.MemPortStallCycles += d.MemPortStallCycles
	r.ForwardsEXMEM += d.ForwardsEXMEM
	r.ForwardsMEMWB += d.ForwardsMEMWB
	r.DelaySlots += d.DelaySlots
	r.DelaySlotsFilled += d.DelaySlotsFilled
	r.Transfers += d.Transfers
	r.TakenTransfers += d.TakenTransfers
}
