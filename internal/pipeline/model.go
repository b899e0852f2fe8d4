// Cycle-accurate five-stage pipeline model. Where Analyze estimates cycle
// counts from aggregate statistics, Machine measures them: it runs the
// single-cycle core as its architectural oracle and replays every
// retirement, reported through the core's Retire hook, through an
// IF/ID/EX/MEM/WB timing model with full operand forwarding, a load-use
// interlock, register-window trap drains, and one of two control-transfer
// policies. Architectural state is always exactly the core's — the pipeline
// layer only decides how many cycles the same execution takes — and the
// core may run under any engine: the step oracle reports one instruction
// at a time, the block engine one compiled block at a time (see memo.go).
//
// The timing model is event-driven rather than stage-by-stage: for an
// in-order single-issue pipeline the cycle an instruction enters EX
// determines every other stage (IF = EX-2, ID = EX-1, MEM = EX+1,
// WB = EX+2), so it suffices to track, per retired instruction, the EX
// cycle and the producers still in flight. The first instruction reaches
// EX at cycle 3; with no stalls each successor follows one cycle later and
// a program of N instructions drains after N+4 cycles.
//
// Hazards are resolved the way the classic five-stage datapath does:
//
//   - EX/MEM forward: an ALU result feeds the very next instruction's EX.
//   - MEM/WB forward: a result two ahead of its consumer, including a load
//     feeding the instruction after its shadow.
//   - Load-use interlock: a load's value does not exist until the end of
//     MEM, so a consumer in the next slot stalls one cycle and then takes
//     the MEM/WB forward.
//   - Store data is not needed until the store's own MEM stage, so a load
//     feeding the data register of the very next store forwards
//     MEM-to-MEM without stalling.
//   - Three or more instructions of distance read the register file
//     (write-first-half / read-second-half).
//   - Shared memory port: the machine has one port to memory, so a load
//     or store in MEM blocks instruction fetch that cycle. The delayed
//     fetch slides the follower's whole IF/ID/EX frame — this is the
//     structural hazard that makes loads and stores effectively
//     two-cycle instructions in the paper's timing tables.
//
// Producers and consumers are matched by physical register index, not
// architectural number: CALL and RET shift the window between an
// instruction's operand read and its successor's, and the same r26 names a
// different physical register on either side of a call. Condition codes are
// a scoreboarded pseudo-register with the same forwarding rules.
//
// Register-window overflow and underflow raise the spill/fill trap of the
// single-cycle model; the pipeline drains while the handler runs, charged
// at timing.RiscSpillCycles / RiscFillCycles per event.
//
// Only the last three retirements are ever live. Each EX cycle is at least
// one past its predecessor's, so a producer three or more retirements back
// is at EX distance three or more from any consumer: its value is in the
// register file, and neither a stall nor a bypass involves it. The memory
// port is the one resource that reaches further: an access three
// retirements back holds the port in the very cycle the next fetch wants
// it, while one four back has released it before. The timing state is
// therefore a three-entry window of recent retirements, not a scoreboard
// over the physical register file.
package pipeline

import (
	"fmt"

	"risc1/internal/asm"
	"risc1/internal/core"
	"risc1/internal/isa"
	"risc1/internal/regwin"
	"risc1/internal/timing"
)

// Policy selects how the pipeline resolves control transfers.
type Policy uint8

const (
	// PolicyDelayed is RISC I as built: transfers resolve early enough
	// that the delay slot exactly covers the branch shadow — a taken
	// transfer costs no bubble beyond the slot the architecture already
	// exposes.
	PolicyDelayed Policy = iota
	// PolicySquash models predict-not-taken hardware on the same ISA:
	// the transfer resolves in EX, so by the time a taken transfer is
	// known the fetch unit has gone one instruction past the delay slot
	// down the fall-through path. That wrong-path fetch is squashed — a
	// one-cycle bubble per taken transfer. Architectural results are
	// identical to PolicyDelayed; only the cycle count differs.
	PolicySquash
)

// String returns the wire spelling of p.
func (p Policy) String() string {
	switch p {
	case PolicyDelayed:
		return "delayed"
	case PolicySquash:
		return "squash"
	}
	return "invalid"
}

// ParsePolicy maps a wire spelling to a Policy. The empty string selects
// PolicyDelayed, the machine the paper built.
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "", "delayed":
		return PolicyDelayed, nil
	case "squash", "predict-not-taken":
		return PolicySquash, nil
	}
	return PolicyDelayed, fmt.Errorf("pipeline: unknown policy %q (want delayed or squash)", s)
}

// Result is the timing outcome of one pipelined run.
type Result struct {
	Policy       Policy
	Instructions uint64
	// Cycles is the pipelined cycle count: Instructions + 4 fill/drain
	// cycles + every stall and bubble below.
	Cycles uint64

	// LoadUseStallCycles counts interlock cycles where EX waited for a
	// load (or a flag-setting load feeding a conditional jump).
	LoadUseStallCycles uint64
	// WindowStallCycles counts drain cycles spent in the register-window
	// spill/fill trap handler.
	WindowStallCycles uint64
	// FlushBubbleCycles counts wrong-path fetches squashed by taken
	// transfers; always zero under PolicyDelayed.
	FlushBubbleCycles uint64
	// MemPortStallCycles counts fetches delayed because a load or store
	// occupied the single shared memory port in its MEM stage. This is the
	// structural hazard that makes the paper's loads and stores two-cycle
	// instructions: the machine has one port, and a data access suspends
	// instruction fetch for a cycle.
	MemPortStallCycles uint64

	// ForwardsEXMEM and ForwardsMEMWB count operands delivered through
	// the two bypass paths rather than the register file.
	ForwardsEXMEM uint64
	ForwardsMEMWB uint64

	// DelaySlots counts retired delay-slot instructions;
	// DelaySlotsFilled is the subset doing useful work (not NOPs).
	DelaySlots       uint64
	DelaySlotsFilled uint64

	Transfers      uint64
	TakenTransfers uint64
}

// CPI is the effective cycles-per-instruction; 0 for an empty run.
func (r Result) CPI() float64 {
	if r.Instructions == 0 {
		return 0
	}
	return float64(r.Cycles) / float64(r.Instructions)
}

// Forwards is the total operand count delivered over bypass paths.
func (r Result) Forwards() uint64 { return r.ForwardsEXMEM + r.ForwardsMEMWB }

// FillRate is the fraction of retired delay slots holding useful work;
// 0 for a run that retired no slots.
func (r Result) FillRate() float64 {
	if r.DelaySlots == 0 {
		return 0
	}
	return float64(r.DelaySlotsFilled) / float64(r.DelaySlots)
}

// StallCycles is the total of every cycle lost to hazards.
func (r Result) StallCycles() uint64 {
	return r.LoadUseStallCycles + r.WindowStallCycles + r.FlushBubbleCycles +
		r.MemPortStallCycles
}

// inflight is one of the last three retirements, reduced to what a later
// instruction's timing can observe of it.
type inflight struct {
	ex   uint64 // EX cycle
	dst  int32  // physical register written; 0 (r0, never read) for none
	kind uint8  // isLoad | isMem | writesFlags
}

// Retirement kind bits.
const (
	isLoad      = 1 << iota // value exists at end of MEM, not end of EX
	isMem                   // load or store: holds the memory port in MEM (EX+1)
	writesFlags             // wrote the condition codes
)

func (w *inflight) load() bool { return w.kind&isLoad != 0 }

// timer is the complete timing state and the per-instruction step that
// advances it.
type timer struct {
	regs   *regwin.File // window geometry, for physical register indices
	policy Policy
	res    Result

	ex      uint64 // EX cycle of the last retired instruction
	pending uint64 // stall cycles already charged to the next issue

	win [3]inflight // the last three retirements, most recent first

	slotPending bool // last retirement was a transfer owning a delay slot
	slotTaken   bool
}

// reset returns the timer to an empty pipeline: the first instruction
// enters EX at cycle 3.
func (t *timer) reset() {
	*t = timer{regs: t.regs, policy: t.policy, res: Result{Policy: t.policy}, ex: 2}
}

// phys maps visible register r (1..31) of the window whose r10 sits at
// physical index base to its physical register.
func (t *timer) phys(base int, r uint8) int32 {
	switch {
	case r < isa.NumGlobalRegs:
		return int32(r)
	case r < isa.FirstHigh: // LOW and LOCAL
		return int32(base + int(r) - isa.FirstLow)
	default: // HIGH: the caller's LOW
		return int32(t.regs.ShiftBase(base, -1) + int(r) - isa.FirstHigh)
	}
}

// writer returns the latest retirement that wrote physical register p and
// is still close enough to matter, or nil. Only the last two can: a
// producer three back is at EX distance three or more, so its value is
// read from the register file.
func (t *timer) writer(p int32) *inflight {
	for i := 0; i < 2; i++ {
		if t.win[i].dst == p {
			return &t.win[i]
		}
	}
	return nil
}

// flagWriter is writer for the condition codes.
func (t *timer) flagWriter() *inflight {
	for i := 0; i < 2; i++ {
		if t.win[i].kind&writesFlags != 0 {
			return &t.win[i]
		}
	}
	return nil
}

// step retires one instruction. srcBase is the window its operands were
// read in and dstBase the window it wrote: they differ only for a call or
// return, which moves the window between the two. taken is a transfer's
// outcome and ovf/unf the window traps the instruction raised. This is the
// only implementation of the pipeline's timing: block memos are filled by
// running it.
func (t *timer) step(f *facts, srcBase, dstBase int, taken bool, ovf, unf uint64) {
	t.res.Instructions++
	inSlot := t.slotPending
	if inSlot {
		t.res.DelaySlots++
		if f.useful {
			t.res.DelaySlotsFilled++
		}
	}

	// Issue: one cycle after the previous EX, plus any pending squash
	// bubble or window-trap drain charged by the previous retirement.
	issue := t.ex + 1 + t.pending
	t.pending = 0

	// Scan EX operands for hazards. Store data is a MEM-stage operand,
	// handled below.
	ex := issue
	var prod [3]*inflight
	for i := 0; i < int(f.nsrc); i++ {
		if w := t.writer(t.phys(srcBase, f.src[i])); w != nil {
			prod[i] = w
			if need := ready(w) + 1; ex < need {
				ex = need
			}
		}
	}
	// Conditional jumps consume the condition codes in EX; GETPSW reads
	// them too.
	var fw *inflight
	if f.readsFlags {
		if fw = t.flagWriter(); fw != nil {
			if need := ready(fw) + 1; ex < need {
				ex = need
			}
		}
	}
	t.res.LoadUseStallCycles += ex - issue

	// Shared memory port: this instruction's fetch (IF = EX-2) cannot use
	// the port in a cycle where an earlier access's MEM stage holds it, so
	// the fetch — and with it the whole rigid IF/ID/EX frame — slides
	// until the port is free. The window's MEM cycles rise from oldest to
	// newest.
	fetch := ex - 2
	for i := len(t.win) - 1; i >= 0; i-- {
		w := &t.win[i]
		if w.kind&isMem == 0 {
			continue
		}
		if b := w.ex + 1; b == fetch {
			fetch++
		} else if b > fetch {
			break
		}
	}
	if min := fetch + 2; ex < min {
		t.res.MemPortStallCycles += min - ex
		ex = min
	}

	// With the EX cycle fixed, classify where each operand came from.
	for i := 0; i < int(f.nsrc); i++ {
		if w := prod[i]; w != nil {
			t.countForward(ex-w.ex, w.load())
		}
	}
	if fw != nil {
		t.countForward(ex-fw.ex, fw.load())
	}
	// Store data is needed at the store's MEM stage, one cycle later, so
	// even a load feeding the very next store forwards MEM-to-MEM
	// without a stall.
	if f.memSrc != 0 {
		if w := t.writer(t.phys(srcBase, f.memSrc)); w != nil {
			switch d := ex - w.ex; {
			case d == 1 && !w.load():
				t.res.ForwardsEXMEM++
			case d <= 2:
				t.res.ForwardsMEMWB++
			}
		}
	}

	// Retire into the window for the successors.
	t.ex = ex
	t.win[2], t.win[1] = t.win[1], t.win[0]
	t.win[0] = inflight{ex: ex, kind: f.kind}
	if f.dst != 0 {
		t.win[0].dst = t.phys(dstBase, f.dst)
	}

	// This retirement fills the previous transfer's delay slot: under
	// predict-not-taken hardware a taken transfer is only resolved now,
	// and the fetch that went one past this slot is squashed.
	if inSlot {
		t.slotPending = false
		if t.slotTaken && t.policy == PolicySquash {
			t.pending++
			t.res.FlushBubbleCycles++
		}
	}
	// ... and may itself open a slot (CALLINT is slotless).
	if f.opensSlot {
		t.res.Transfers++
		if taken {
			t.res.TakenTransfers++
		}
		t.slotPending, t.slotTaken = true, taken
	}

	// A window overflow or underflow during this instruction ran the
	// spill/fill trap handler; the pipeline drains behind it.
	if ovf != 0 {
		t.pending += ovf * timing.RiscSpillCycles
		t.res.WindowStallCycles += ovf * timing.RiscSpillCycles
	}
	if unf != 0 {
		t.pending += unf * timing.RiscFillCycles
		t.res.WindowStallCycles += unf * timing.RiscFillCycles
	}
}

// ready returns the cycle at the end of which w's value exists: end of EX
// for ALU results, end of MEM for loads. A consumer's EX must start strictly
// later.
func ready(w *inflight) uint64 {
	if w.load() {
		return w.ex + 1
	}
	return w.ex
}

// countForward attributes one EX operand to its delivery path given the
// producer-consumer EX distance.
func (t *timer) countForward(d uint64, load bool) {
	switch {
	case d == 1 && !load:
		t.res.ForwardsEXMEM++
	case d == 2:
		t.res.ForwardsMEMWB++
	}
	// d >= 3: plain register-file read, no bypass involved.
}

// facts is what the timing step needs to know about one instruction,
// derived once per code word from its decoded form.
type facts struct {
	inst isa.Inst // the instruction the facts describe
	ok   bool

	src        [3]uint8 // EX-stage register operands, r0 excluded
	nsrc       uint8
	memSrc     uint8 // store data register (a MEM-stage operand); 0 for none
	dst        uint8 // register written; 0 for none (r0 writes are discarded)
	kind       uint8 // the inflight kind bits it retires with
	readsFlags bool
	control    bool // CALL, CALLINT or RET: may move the window
	opensSlot  bool // a delayed transfer (every transfer but CALLINT)
	useful     bool // not a nop, should it sit in a delay slot
}

// factsOf derives in's timing facts.
func factsOf(in *isa.Inst) facts {
	f := facts{inst: *in, ok: true}
	var buf [4]uint8
	srcs := in.SourceRegs(buf[:0])
	cat := in.Op.Cat()
	if cat == isa.CatStore {
		f.memSrc = srcs[len(srcs)-1]
		srcs = srcs[:len(srcs)-1]
	}
	for _, r := range srcs {
		if r != 0 {
			f.src[f.nsrc] = r
			f.nsrc++
		}
	}
	if d, ok := in.DestReg(); ok {
		f.dst = d
	}
	switch cat {
	case isa.CatLoad:
		f.kind = isLoad | isMem
	case isa.CatStore:
		f.kind = isMem
	}
	if in.SCC || in.Op == isa.OpPUTPSW {
		f.kind |= writesFlags
	}
	f.readsFlags = readsFlags(in)
	f.control = cat == isa.CatControl
	f.opensSlot = in.Op.Transfers() && in.Op != isa.OpCALLINT
	f.useful = !in.IsEffectFree()
	return f
}

// readsFlags reports whether inst consumes the condition codes in EX.
// CondALW/CondNEV never look at the flags.
func readsFlags(inst *isa.Inst) bool {
	if inst.Op == isa.OpGETPSW {
		return true
	}
	if !inst.Op.IsConditional() {
		return false
	}
	c := inst.Cond()
	return c != isa.CondALW && c != isa.CondNEV
}

// Machine is a cycle-accurate pipelined RISC I. It embeds a single-cycle
// core as its architectural oracle: every instruction executes exactly as
// the core's configured engine runs it, and the timing model observes the
// retirement stream to charge cycles.
type Machine struct {
	cpu *core.CPU
	t   timer

	// Timing facts per code word, keyed by the decoded instruction so a
	// store into code simply misses; codeOrg is the first word's address.
	codeOrg uint32
	facts   []facts
	spare   facts // facts of an instruction outside the cached range

	memo    memo
	memoize bool // the register file fits a memo key
}

// New builds a pipelined machine over a fresh core with the given
// configuration. The core runs under cfg.Engine: EngineStep makes the
// per-instruction step the timing oracle, every other engine prices
// compiled blocks through the block memo (the trace tier is not used —
// superblocks have no block boundaries to report).
func New(cfg core.Config, policy Policy) *Machine {
	m := &Machine{cpu: core.New(cfg)}
	m.cpu.Retire = m.retire
	m.memoize = m.cpu.Regs.TotalPhys() <= physLimit
	m.t = timer{regs: m.cpu.Regs, policy: policy}
	m.t.reset()
	return m
}

// CPU exposes the architectural oracle: registers, memory, console, stats.
func (m *Machine) CPU() *core.CPU { return m.cpu }

// Load places an image in memory, resets the processor and the timing model.
func (m *Machine) Load(img *asm.Image) error {
	if err := m.cpu.Load(img); err != nil {
		return err
	}
	m.t.reset()
	m.memo.reset()
	// Cache facts for the code segment only, as the core predecodes it.
	n := len(img.Bytes)
	if ds, ok := img.Symbol("__data_start"); ok && ds >= img.Org && ds <= img.Org+uint32(n) {
		n = int(ds - img.Org)
	}
	m.codeOrg = img.Org
	if cap(m.facts) < n/4 {
		m.facts = make([]facts, n/4)
	} else {
		m.facts = m.facts[:n/4]
		clear(m.facts)
	}
	return nil
}

// Run executes until halt, fault or cycle budget.
func (m *Machine) Run() error { return m.cpu.Run() }

// Result returns the timing outcome so far. It is valid after a partial
// run (fault, cycle limit, cancellation): it describes the instructions
// that actually retired.
func (m *Machine) Result() Result {
	r := m.t.res
	if r.Instructions > 0 {
		// The last instruction still has MEM and WB to drain.
		r.Cycles = m.t.ex + 2
	}
	return r
}

// factsAt returns the timing facts of in, the instruction at pc.
func (m *Machine) factsAt(pc uint32, in *isa.Inst) *facts {
	if off := pc - m.codeOrg; off&3 == 0 && off>>2 < uint32(len(m.facts)) {
		f := &m.facts[off>>2]
		if !f.ok || f.inst != *in {
			*f = factsOf(in)
		}
		return f
	}
	m.spare = factsOf(in)
	return &m.spare
}

// retire is the core's Retire hook. A whole compiled block entered with no
// delay slot pending is priced through the memo; anything else — single
// steps and the prefix a fault, halt, self-modifying store or cycle limit
// left — replays instruction by instruction.
func (m *Machine) retire(r *core.Retired) {
	if r.Full && r.Block != 0 && !m.t.slotPending && m.memoize {
		m.retireBlock(r)
		return
	}
	m.replay(&m.t, r)
}

// replay runs the per-instruction step over r's instructions on t.
func (m *Machine) replay(t *timer, r *core.Retired) {
	base := r.Base
	for i := range r.Insts {
		f := m.factsAt(r.PC+uint32(4*i), &r.Insts[i])
		if !f.control {
			t.step(f, base, base, false, 0, 0)
			continue
		}
		t.step(f, base, r.NewBase, r.Taken, r.Overflows, r.Underflows)
		base = r.NewBase
	}
}
