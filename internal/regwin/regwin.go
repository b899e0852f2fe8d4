// Package regwin implements the overlapping register windows that are the
// architectural heart of RISC I.
//
// A procedure sees 32 registers: r0–r9 are global (r0 reads as zero), and
// r10–r31 are a window into a large physical file. On CALL the window slides
// down by 16 registers so that the caller's outgoing-parameter registers
// (LOW, r10–r15) become the callee's incoming-parameter registers (HIGH,
// r26–r31) with no data movement. With N hardware windows the file holds
// 10 + 16·N physical registers — the paper's configuration is N = 8, giving
// the famous 138 — and N−1 procedure activations can be resident at once.
// Deeper call chains spill the oldest window to memory (overflow trap) and
// reload it on the way back up (underflow trap); packages core and exp count
// those events for the window-sizing experiment.
package regwin

import (
	"fmt"

	"risc1/internal/isa"
)

// DefaultWindows is the paper's hardware configuration: 8 windows,
// 138 physical registers.
const DefaultWindows = 8

// WindowSave is the register image moved by one spill or fill: the LOCAL
// registers (r16–r25) and HIGH registers (r26–r31) of one window — 16 words.
// A window's LOW registers are its callee's HIGH and travel with the
// callee's save image; this is exactly the discipline later adopted by
// SPARC, RISC I's direct descendant. Saving LOW+LOCAL instead would let an
// overflowing call overwrite the oldest window's incoming parameters before
// they reach memory.
type WindowSave [isa.WindowRegs]uint32

// SaveBytes is the memory cost of one spill or fill in bytes.
const SaveBytes = isa.WindowRegs * 4

// File is a windowed register file. The zero value is not usable; call New.
//
// Window positions are tracked as unbounded logical indices (0 at reset,
// +1 per call, −1 per return); the physical slot of logical window w is
// w mod N. The invariant maintained between spilled and cwp is
// cwp − spilled ≤ N−2: trying to push past that must first SpillOldest, and
// popping below spilled must first FillNewest.
type File struct {
	n       int
	phys    []uint32
	cwp     int // logical index of the current window
	spilled int // logical index of the oldest resident window

	// curBase and prevBase cache physBase(cwp) and physBase(cwp-1). Get and
	// Set sit on the simulator's hot path, and physBase needs a modulo; the
	// bases only change on push/pop/reset, so they are maintained there
	// (push and pop step them with ShiftBase).
	curBase  int
	prevBase int
}

// New returns a register file with the given number of hardware windows.
// The minimum is 3: the current window, one window of overlap slack, and one
// window that can be spilled while the other two stay addressable.
func New(windows int) *File {
	if windows < 3 {
		panic(fmt.Sprintf("regwin: need at least 3 windows, got %d", windows))
	}
	f := &File{
		n:    windows,
		phys: make([]uint32, isa.NumGlobalRegs+isa.WindowRegs*windows),
	}
	f.rebase()
	return f
}

// rebase recomputes the cached window bases after cwp changes.
func (f *File) rebase() {
	f.curBase = f.physBase(f.cwp)
	f.prevBase = f.physBase(f.cwp - 1)
}

// Windows returns the number of hardware windows N.
func (f *File) Windows() int { return f.n }

// TotalPhys returns the number of physical registers (10 + 16·N).
func (f *File) TotalPhys() int { return len(f.phys) }

// CWP returns the logical index of the current window.
func (f *File) CWP() int { return f.cwp }

// Resident returns how many windows are currently held in hardware.
func (f *File) Resident() int { return f.cwp - f.spilled + 1 }

// Spilled returns the logical index of the oldest resident window.
func (f *File) Spilled() int { return f.spilled }

func floorMod(a, n int) int {
	m := a % n
	if m < 0 {
		m += n
	}
	return m
}

// physBase returns the physical index of logical window w's r10 slot.
func (f *File) physBase(w int) int {
	return isa.NumGlobalRegs + isa.WindowRegs*floorMod(w, f.n)
}

// CurBase returns the physical index of the current window's r10 slot.
func (f *File) CurBase() int { return f.curBase }

// ShiftBase returns the base (physical index of r10) of the window d
// windows beyond the one whose base is base, for |d| < Windows(). It wraps
// around the file with a compare rather than a modulo: the pipeline model
// and PushWindow/PopWindow derive neighbouring bases on every call.
func (f *File) ShiftBase(base, d int) int {
	b := base + d*isa.WindowRegs
	switch span := f.n * isa.WindowRegs; {
	case b < isa.NumGlobalRegs:
		b += span
	case b >= isa.NumGlobalRegs+span:
		b -= span
	}
	return b
}

// PhysIndex maps (logical window, visible register) to a physical register
// index. Exposed for tests and visualization; r must be 1..31 (r0 has no
// physical home).
func (f *File) PhysIndex(window int, r uint8) int {
	switch {
	case r == 0 || r > 31:
		panic(fmt.Sprintf("regwin: r%d has no physical index", r))
	case r < isa.NumGlobalRegs:
		return int(r)
	case r < isa.FirstHigh: // LOW and LOCAL
		return f.physBase(window) + int(r) - isa.FirstLow
	default: // HIGH: shared with the caller's LOW
		return f.physBase(window-1) + int(r) - isa.FirstHigh
	}
}

// Get reads visible register r in the current window. r0 reads as zero.
// This is the simulator's single hottest function, so it indexes through
// the cached bases rather than PhysIndex.
func (f *File) Get(r uint8) uint32 {
	switch {
	case r == 0:
		return 0
	case r < isa.NumGlobalRegs:
		return f.phys[r]
	case r < isa.FirstHigh: // LOW and LOCAL
		return f.phys[f.curBase+int(r)-isa.FirstLow]
	default: // HIGH: shared with the caller's LOW
		return f.phys[f.prevBase+int(r)-isa.FirstHigh]
	}
}

// Set writes visible register r in the current window. Writes to r0 are
// discarded, as on the hardware.
func (f *File) Set(r uint8, v uint32) {
	switch {
	case r == 0:
	case r < isa.NumGlobalRegs:
		f.phys[r] = v
	case r < isa.FirstHigh:
		f.phys[f.curBase+int(r)-isa.FirstLow] = v
	default:
		f.phys[f.prevBase+int(r)-isa.FirstHigh] = v
	}
}

// GetIn reads register r as seen from an explicit logical window. Used by
// trap handlers and debuggers to inspect callers.
func (f *File) GetIn(window int, r uint8) uint32 {
	if r == 0 {
		return 0
	}
	return f.phys[f.PhysIndex(window, r)]
}

// NeedSpill reports whether a call (PushWindow) would exceed hardware
// capacity and therefore must SpillOldest first.
func (f *File) NeedSpill() bool { return f.cwp+1-f.spilled > f.n-2 }

// PushWindow slides into a new window (procedure call). The caller must
// resolve NeedSpill first; pushing into occupied hardware panics because it
// would silently corrupt a resident window.
func (f *File) PushWindow() {
	if f.NeedSpill() {
		panic("regwin: window overflow not handled before PushWindow")
	}
	f.cwp++
	f.prevBase = f.curBase
	f.curBase = f.ShiftBase(f.curBase, 1)
}

// NeedFill reports whether a return (PopWindow) would land in a window that
// has been spilled to memory and therefore must FillNewest first.
func (f *File) NeedFill() bool { return f.cwp-1 < f.spilled }

// PopWindow slides back to the caller's window (procedure return).
func (f *File) PopWindow() {
	if f.NeedFill() {
		panic("regwin: window underflow not handled before PopWindow")
	}
	f.cwp--
	f.curBase = f.prevBase
	f.prevBase = f.ShiftBase(f.curBase, -1)
}

// numLocal is the count of LOCAL registers (r16–r25) in a save image.
const numLocal = isa.FirstHigh - isa.FirstLocal

// SpillOldest removes the oldest resident window from hardware and returns
// its 16-register image (LOCALs then HIGHs) for the trap handler to write to
// the register-save stack.
func (f *File) SpillOldest() WindowSave {
	if f.spilled >= f.cwp {
		panic("regwin: nothing to spill")
	}
	var save WindowSave
	w := f.spilled
	localBase := f.physBase(w) + (isa.FirstLocal - isa.FirstLow)
	copy(save[:numLocal], f.phys[localBase:localBase+numLocal])
	highBase := f.physBase(w - 1)
	copy(save[numLocal:], f.phys[highBase:highBase+isa.OverlapRegs])
	f.spilled++
	return save
}

// FillNewest restores the most recently spilled window image into hardware;
// the inverse of SpillOldest.
func (f *File) FillNewest(save WindowSave) {
	if f.spilled == 0 {
		panic("regwin: nothing to fill")
	}
	if f.cwp-f.spilled+2 > f.n-1 {
		panic("regwin: no hardware room to fill into")
	}
	f.spilled--
	w := f.spilled
	localBase := f.physBase(w) + (isa.FirstLocal - isa.FirstLow)
	copy(f.phys[localBase:localBase+numLocal], save[:numLocal])
	highBase := f.physBase(w - 1)
	copy(f.phys[highBase:highBase+isa.OverlapRegs], save[numLocal:])
}

// Reset returns the file to power-on state: window 0 current, all registers
// zero.
func (f *File) Reset() {
	for i := range f.phys {
		f.phys[i] = 0
	}
	f.cwp, f.spilled = 0, 0
	f.rebase()
}
