package cisc

import (
	"context"
	"errors"
	"fmt"
	"strings"

	"risc1/internal/mem"
	"risc1/internal/stats"
)

// HaltPC is the sentinel return address planted under the entry procedure:
// a RET that lands here stops the machine (the CX counterpart of the RISC I
// halt convention).
const HaltPC = 0xFFFF0000

// Config sizes a CX machine.
type Config struct {
	MemSize   int    // RAM bytes (default 1 MiB)
	MaxCycles uint64 // microcycle budget (default 4e9, ≈13 min at 200ns)
}

func (c Config) withDefaults() Config {
	if c.MemSize == 0 {
		c.MemSize = 1 << 20
	}
	if c.MaxCycles == 0 {
		c.MaxCycles = 4e9
	}
	return c
}

// Sentinel errors.
var (
	ErrMaxCycles = errors.New("cisc: microcycle limit exceeded")
	ErrHalted    = errors.New("cisc: machine is halted")
)

// RunError is a structured execution fault: the wrapped cause plus the
// faulting PC, the disassembly of the instruction there (when it decodes),
// the microcycle count, and a snapshot of the register file.
type RunError struct {
	PC     uint32
	Inst   string   // disassembly of the faulting instruction ("" if undecodable)
	Cycles uint64   // microcycle count when the fault was raised
	Regs   []uint32 // r0..r14 (including ap/fp/sp) at the fault
	Err    error
}

// Error is the pre-hardening name for RunError, kept for callers that match
// on *cisc.Error.
type Error = RunError

func (e *RunError) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "cisc: at pc %#08x", e.PC)
	if e.Inst != "" {
		fmt.Fprintf(&b, " (%s)", e.Inst)
	}
	if e.Cycles > 0 {
		fmt.Fprintf(&b, " cycle %d", e.Cycles)
	}
	fmt.Fprintf(&b, ": %v", e.Err)
	return b.String()
}

func (e *RunError) Unwrap() error { return e.Err }

// runError builds a RunError for a fault at pc, snapshotting machine state.
func (c *CPU) runError(pc uint32, err error) *RunError {
	e := &RunError{
		PC:     pc,
		Cycles: c.stat.Cycles,
		Regs:   append([]uint32(nil), c.regs[:]...),
		Err:    err,
	}
	// Disassemble the faulting instruction from memory; a variable-length
	// instruction spans at most maxInstBytes, and any fetch failure just
	// truncates the window (decodeAt then falls back to a .byte line).
	var buf [maxInstBytes]byte
	n := 0
	for ; n < maxInstBytes; n++ {
		b, ferr := c.Mem.FetchByte(pc + uint32(n))
		if ferr != nil {
			break
		}
		buf[n] = b
	}
	if n > 0 {
		if text, _ := decodeAt(buf[:n], 0, pc); !strings.HasPrefix(text, ".byte") {
			e.Inst = text
		}
	}
	return e
}

type flags struct{ Z, N, V, C bool }

// CPU is one CX processor with its memory.
type CPU struct {
	cfg    Config
	Mem    *mem.Memory
	regs   [NumRegs]uint32
	pc     uint32
	flags  flags
	halted bool
	stat   *stats.Stats

	cursor    uint32 // decode position within the current instruction
	callDepth int
	opCounts  [256]uint64 // per-opcode execution counts (hot path)

	// Instruction-byte memo: the variable-length decoder re-reads its byte
	// stream on every execution, so Load arms a per-PC memo of each
	// instruction's raw bytes. Replaying from the memo skips the per-byte
	// bounds-checked memory fetches; operand specifiers are still decoded
	// each time because their effective addresses depend on register state.
	// A write watch over the code range invalidates overwritten entries.
	codeOrg   uint32
	memo      []memoEntry
	instStart uint32  // PC of the instruction being executed
	replay    []uint8 // instruction bytes being replayed (nil on a miss)
	rec       bool    // recording a missed instruction's bytes
	recN      uint8
	recBuf    [maxInstBytes]uint8

	// Progress, when non-nil, is called at RunContext batch boundaries —
	// at most once per runBatch instructions — with the instruction and
	// microcycle counters retired so far. It runs on the simulation
	// goroutine; keep it cheap.
	Progress func(instructions, cycles uint64)
}

// maxInstBytes bounds one CX instruction: opcode plus three operand
// specifiers of at most five bytes each (specifier byte + 32-bit extension).
const maxInstBytes = 16

// memoEntry caches one decoded instruction's raw bytes; n == 0 means empty.
type memoEntry struct {
	n uint8
	b [maxInstBytes]uint8
}

// New builds a CX machine. Call Load before stepping.
func New(cfg Config) *CPU {
	cfg = cfg.withDefaults()
	return &CPU{cfg: cfg, Mem: mem.New(cfg.MemSize), stat: stats.New()}
}

// Load places an image in memory and performs the initial call into the
// entry procedure (so the entry's .mask and RET work like any other
// procedure). Statistics start from zero afterwards.
func (c *CPU) Load(img *Image) error {
	c.regs = [NumRegs]uint32{}
	c.flags = flags{}
	c.halted = false
	c.callDepth = 0
	if err := c.Mem.LoadProgram(img.Org, img.Bytes); err != nil {
		return err
	}
	c.armMemo(img)
	c.regs[SP] = uint32(c.cfg.MemSize) &^ 7
	if err := c.doCalls(0, img.Entry, HaltPC); err != nil {
		return err
	}
	c.stat = stats.New()
	c.opCounts = [256]uint64{}
	c.Mem.ResetCounters()
	return nil
}

// Accessors.

// PC returns the current program counter.
func (c *CPU) PC() uint32 { return c.pc }

// Halted reports whether the machine has stopped.
func (c *CPU) Halted() bool { return c.halted }

// Reg reads a general register.
func (c *CPU) Reg(r uint8) uint32 { return c.regs[r] }

// SetReg writes a general register (test harness use).
func (c *CPU) SetReg(r uint8, v uint32) { c.regs[r] = v }

// Console returns console output so far.
func (c *CPU) Console() string { return c.Mem.Console() }

// Stats returns execution statistics with memory traffic synced and the
// instruction-mix maps materialized from the hot-path counters.
func (c *CPU) Stats() *stats.Stats {
	c.stat.DataReads = c.Mem.Reads
	c.stat.DataWrites = c.Mem.Writes
	c.stat.ByName = map[string]uint64{}
	c.stat.ByCategory = map[string]uint64{}
	for opv, n := range c.opCounts {
		if n == 0 {
			continue
		}
		op := Op(opv)
		c.stat.ByName[op.Name()] = n
		c.stat.ByCategory[category(op)] += n
	}
	return c.stat
}

// runBatch is how many instructions RunContext executes between checks of
// the context, mirroring the core simulator's batch size.
const runBatch = 64

// Run executes until halt, fault or the microcycle budget runs out.
func (c *CPU) Run() error { return c.RunContext(context.Background()) }

// RunContext is Run honoring ctx: cancellation or deadline expiry aborts the
// run at the next batch boundary (within runBatch instructions) with a
// RunError wrapping ctx.Err(). The microcycle budget itself is enforced
// exactly, per instruction, inside Step.
func (c *CPU) RunContext(ctx context.Context) error {
	done := ctx.Done()
	for !c.halted {
		if done != nil {
			select {
			case <-done:
				return c.runError(c.pc, ctx.Err())
			default:
			}
		}
		for i := 0; i < runBatch && !c.halted; i++ {
			if err := c.Step(); err != nil {
				return err
			}
		}
		if c.Progress != nil {
			c.Progress(c.stat.Instructions, c.stat.Cycles)
		}
	}
	return nil
}

// dataRead / dataWrite funnel every operand memory access through the cost
// model: each access costs two microcycles on top of the instruction base.
const accessCycles = 2

func (c *CPU) dataRead32(addr uint32) (uint32, error) {
	c.stat.Cycles += accessCycles
	return c.Mem.Load32(addr)
}

func (c *CPU) dataRead8(addr uint32) (uint8, error) {
	c.stat.Cycles += accessCycles
	return c.Mem.Load8(addr)
}

func (c *CPU) dataWrite32(addr uint32, v uint32) error {
	c.stat.Cycles += accessCycles
	return c.Mem.Store32(addr, v)
}

func (c *CPU) dataWrite8(addr uint32, v uint8) error {
	c.stat.Cycles += accessCycles
	return c.Mem.Store8(addr, v)
}

func (c *CPU) push(v uint32) error {
	c.regs[SP] -= 4
	return c.dataWrite32(c.regs[SP], v)
}

func (c *CPU) pop() (uint32, error) {
	v, err := c.dataRead32(c.regs[SP])
	c.regs[SP] += 4
	return v, err
}

// armMemo sizes the instruction memo to the image's code segment and arms
// the write watch that keeps it coherent with self-modifying stores. Compiled
// images mark the code/data boundary with __data_start; hand-written images
// are treated as all code.
func (c *CPU) armMemo(img *Image) {
	code := img.Bytes
	if ds, ok := img.Symbols["__data_start"]; ok &&
		ds >= img.Org && ds <= img.Org+uint32(len(img.Bytes)) {
		code = img.Bytes[:ds-img.Org]
	}
	c.codeOrg = img.Org
	c.memo = make([]memoEntry, len(code))
	c.replay, c.rec = nil, false
	c.Mem.SetWriteWatch(img.Org, img.Org+uint32(len(code)), c.invalidateCode)
}

// invalidateCode drops memo entries that could overlap a store at addr. An
// entry starting at index i spans at most maxInstBytes, so every entry from
// maxInstBytes-1 before the store through its last byte is suspect.
func (c *CPU) invalidateCode(addr uint32, size int) {
	lo := c.codeOrg
	if addr > c.codeOrg+maxInstBytes-1 {
		lo = addr - (maxInstBytes - 1)
	}
	hi := addr + uint32(size)
	if end := c.codeOrg + uint32(len(c.memo)); hi > end {
		hi = end
	}
	for i := lo - c.codeOrg; i < hi-c.codeOrg; i++ {
		c.memo[i].n = 0
	}
}

// fetchByte consumes one instruction-stream byte: from the replay buffer when
// the current instruction's bytes are memoized, from memory otherwise. Misses
// inside the code segment are recorded for the memo as long as the fetches
// stay contiguous from the instruction start.
func (c *CPU) fetchByte() (uint8, error) {
	if off := c.cursor - c.instStart; off < uint32(len(c.replay)) {
		b := c.replay[off]
		c.cursor++
		c.stat.FetchBytes++
		return b, nil
	}
	b, err := c.Mem.FetchByte(c.cursor)
	if err != nil {
		return 0, err
	}
	if c.rec {
		if off := c.cursor - c.instStart; off == uint32(c.recN) && c.recN < maxInstBytes {
			c.recBuf[c.recN] = b
			c.recN++
		} else {
			c.rec = false
		}
	}
	c.cursor++
	c.stat.FetchBytes++
	return b, nil
}

func (c *CPU) fetch16() (uint16, error) {
	hi, err := c.fetchByte()
	if err != nil {
		return 0, err
	}
	lo, err := c.fetchByte()
	if err != nil {
		return 0, err
	}
	return uint16(hi)<<8 | uint16(lo), nil
}

func (c *CPU) fetch32() (uint32, error) {
	hi, err := c.fetch16()
	if err != nil {
		return 0, err
	}
	lo, err := c.fetch16()
	if err != nil {
		return 0, err
	}
	return uint32(hi)<<16 | uint32(lo), nil
}

// loc is a decoded operand location.
type loc struct {
	isReg bool
	reg   uint8
	isImm bool
	imm   uint32
	addr  uint32
}

// decodeSpec consumes one operand specifier and computes its location,
// charging the address-formation microcycles.
func (c *CPU) decodeSpec() (loc, error) {
	b, err := c.fetchByte()
	if err != nil {
		return loc{}, err
	}
	mode := addrMode(b >> 4)
	reg := b & 0xF
	// The 4-bit register field can encode 15, but the file has r0..r14.
	if reg >= NumRegs && mode != modeImm8 && mode != modeImm32 && mode != modeAbs {
		return loc{}, fmt.Errorf("cisc: undefined register r%d in specifier %#02x", reg, b)
	}
	c.stat.Cycles += specCycles(mode)
	switch mode {
	case modeReg:
		return loc{isReg: true, reg: reg}, nil
	case modeDeref:
		return loc{addr: c.regs[reg]}, nil
	case modeDisp8:
		d, err := c.fetchByte()
		if err != nil {
			return loc{}, err
		}
		return loc{addr: c.regs[reg] + uint32(int32(int8(d)))}, nil
	case modeDisp32:
		d, err := c.fetch32()
		if err != nil {
			return loc{}, err
		}
		return loc{addr: c.regs[reg] + d}, nil
	case modeImm8:
		d, err := c.fetchByte()
		if err != nil {
			return loc{}, err
		}
		return loc{isImm: true, imm: uint32(int32(int8(d)))}, nil
	case modeImm32:
		d, err := c.fetch32()
		if err != nil {
			return loc{}, err
		}
		return loc{isImm: true, imm: d}, nil
	case modeAbs:
		d, err := c.fetch32()
		if err != nil {
			return loc{}, err
		}
		return loc{addr: d}, nil
	case modeIndex, modeIndexB:
		idx, err := c.fetchByte()
		if err != nil {
			return loc{}, err
		}
		if idx&0xF >= NumRegs {
			return loc{}, fmt.Errorf("cisc: undefined index register r%d", idx&0xF)
		}
		scale := uint32(4)
		if mode == modeIndexB {
			scale = 1
		}
		return loc{addr: c.regs[reg] + c.regs[idx&0xF]*scale}, nil
	}
	return loc{}, fmt.Errorf("cisc: undefined addressing mode %#x", uint8(mode))
}

// read32/read8 load the operand value; write32/write8 store the result.

func (c *CPU) read32(l loc) (uint32, error) {
	switch {
	case l.isReg:
		return c.regs[l.reg], nil
	case l.isImm:
		return l.imm, nil
	default:
		return c.dataRead32(l.addr)
	}
}

func (c *CPU) read8(l loc) (uint8, error) {
	switch {
	case l.isReg:
		return uint8(c.regs[l.reg]), nil
	case l.isImm:
		return uint8(l.imm), nil
	default:
		return c.dataRead8(l.addr)
	}
}

func (c *CPU) write32(l loc, v uint32) error {
	if l.isReg {
		c.regs[l.reg] = v
		return nil
	}
	return c.dataWrite32(l.addr, v)
}

func (c *CPU) write8(l loc, v uint8) error {
	if l.isReg {
		c.regs[l.reg] = c.regs[l.reg]&^0xFF | uint32(v)
		return nil
	}
	return c.dataWrite8(l.addr, v)
}

func (c *CPU) setNZ(v uint32) {
	c.flags.Z = v == 0
	c.flags.N = int32(v) < 0
	c.flags.V = false
	c.flags.C = false
}
