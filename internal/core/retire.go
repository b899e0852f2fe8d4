package core

import "risc1/internal/isa"

// Retired is one report to the CPU.Retire hook: a run of instructions that
// has just retired, in program order. The compiled-block engine reports a
// whole block per call, so a timing model can price (and memoize) blocks
// rather than instructions; the single-step path reports one instruction
// per call. Only the run's control transfer, if any, moves the register
// window, and it is always the last instruction before a delay slot: a
// block ends with its transfer and slot, and a single step is one
// instruction.
type Retired struct {
	// Insts are the retired instructions. The slice aliases the CPU's
	// decode caches: read it only during the call.
	Insts []isa.Inst
	// PC is the address of Insts[0]; the rest follow contiguously.
	PC uint32
	// Block identifies the compiled block the instructions ran in, 0 for
	// a single step. A CPU never reuses an identity: a block recompiled
	// after a store into its code, or after a Load, gets a fresh one. Full
	// reports that the whole block retired; otherwise a fault, a halt, a
	// store into the block's own code or the cycle limit stopped it after
	// the prefix Insts.
	Block uint32
	Full  bool
	// Base and NewBase are the physical index of the current window's r10
	// (regwin.File.CurBase) before and after the run. They differ only
	// across a CALL, CALLINT or RET that moved the window.
	Base, NewBase int
	// Taken reports that the run's delayed transfer redirected control; a
	// RET that halted the machine is not taken.
	Taken bool
	// Overflows and Underflows count the register-window traps the run's
	// call or return took.
	Overflows, Underflows uint64
}

// retireStep reports one single-stepped instruction to the Retire hook.
// base, ovf and unf are the window base and trap counters sampled before
// the instruction executed.
func (c *CPU) retireStep(pc uint32, inst *isa.Inst, base int, taken bool, ovf, unf uint64) {
	c.stepInst[0] = *inst
	r := &c.retired
	r.Insts, r.PC, r.Block, r.Full = c.stepInst[:], pc, 0, false
	c.report(base, taken, ovf, unf)
}

// retireBlock reports the first n instructions of b to the Retire hook,
// if one is installed. base, ovf and unf are sampled before the block's
// transfer executed; taken is the transfer's outcome.
func (c *CPU) retireBlock(b *block, n, base int, taken bool, ovf, unf uint64) {
	if c.Retire == nil || n == 0 {
		return
	}
	r := &c.retired
	r.Insts, r.PC, r.Block, r.Full = b.insts[:n], b.startPC, b.id, n == b.nInst
	c.report(base, taken, ovf, unf)
}

// report completes c.retired with the window and trap fields and hands it
// to the Retire hook. Fields are set in place: the report is on the hot
// path of every block.
func (c *CPU) report(base int, taken bool, ovf, unf uint64) {
	r := &c.retired
	r.Base, r.NewBase, r.Taken = base, c.Regs.CurBase(), taken
	r.Overflows = c.stat.WindowOverflow - ovf
	r.Underflows = c.stat.WindowUnderflow - unf
	c.Retire(r)
}

// retireInPlace is retireBlock for runs that include no window move: the
// whole of a jump-terminated or straight-line block, or a prefix that
// stopped before its transfer executed. It is small enough to inline, so
// a CPU without a Retire hook pays one nil check per block.
func (c *CPU) retireInPlace(b *block, n int, taken bool) {
	if c.Retire != nil {
		c.retireBlock(b, n, c.Regs.CurBase(), taken, c.stat.WindowOverflow, c.stat.WindowUnderflow)
	}
}
