// Package machine is the one way a program is built and run on any of the
// repository's machines: the windowed and flat RISC I cores, the CX
// comparator, the cycle-accurate pipeline and the shared-memory SMP machine
// (with or without the race detector). The risc1 facade, the experiment lab
// and the E12 scalability sweep all compile through Compile and run through
// Run, so every machine is measured the same way.
package machine

import (
	"context"
	"time"

	"risc1/internal/asm"
	"risc1/internal/cc"
	"risc1/internal/cisc"
	"risc1/internal/core"
	"risc1/internal/mem"
	"risc1/internal/pipeline"
	"risc1/internal/smp"
	"risc1/internal/stats"
	"risc1/internal/timing"
)

// Image is a compiled, loadable program for one target machine. An Image is
// immutable after creation — running it copies the bytes into a fresh
// machine — so one Image can safely serve many concurrent Run calls.
// This is the unit the riscd serving layer caches: compile once, run many.
type Image struct {
	target cc.Target
	risc   *asm.Image
	cx     *cisc.Image
}

// Target returns the machine the image was compiled for.
func (img *Image) Target() cc.Target { return img.target }

// Size returns the image size in bytes (code plus initialized data).
func (img *Image) Size() int {
	if img.cx != nil {
		return img.cx.Size()
	}
	return len(img.risc.Bytes)
}

// Disassemble renders the image's encoded listing.
func (img *Image) Disassemble() string {
	if img.cx != nil {
		return cisc.Disassemble(img.cx)
	}
	return asm.Disassemble(img.risc)
}

// Programs returns the assembled program inside img: the RISC I image for
// the RISC targets, the CX image for CISC; the other is nil.
func Programs(img *Image) (*asm.Image, *cisc.Image) { return img.risc, img.cx }

// Assemble assembles machine-level source to an Image: RISC I assembly for
// the RISC targets (windowed, flat and pipelined differ only in how the
// machine runs the image, not in its encoding), CX assembly for CISC.
func Assemble(source string, target cc.Target) (*Image, error) {
	if target == cc.CISC {
		ci, err := cisc.Assemble(source)
		if err != nil {
			return nil, err
		}
		return &Image{target: target, cx: ci}, nil
	}
	ri, err := asm.Assemble(source)
	if err != nil {
		return nil, err
	}
	return &Image{target: target, risc: ri}, nil
}

// Compile compiles a Cm program to an Image for opt.Target and reports how
// many delay slots the optimizer filled. When assembly fails only because a
// value outran its immediate field — a program whose data exceeds the global
// pointer's 8 KiB reach — it recompiles once with full 32-bit addressing.
// Any other assembly error is returned as-is: retrying could only mask the
// genuine diagnostic behind a second compile.
func Compile(source string, opt cc.Options) (*Image, int, error) {
	res, err := cc.Compile(source, opt)
	if err != nil {
		return nil, 0, err
	}
	img, err := Assemble(res.Asm, opt.Target)
	if err == nil || !asm.IsOutOfRange(err) {
		return img, res.SlotsFilled, err
	}
	opt.WideData = true
	res, werr := cc.Compile(source, opt)
	if werr != nil {
		return nil, 0, err // report the original, narrow-addressing failure
	}
	img, err = Assemble(res.Asm, opt.Target)
	return img, res.SlotsFilled, err
}

// Config selects the machine an image runs on and bounds the run; the zero
// value runs the image's own target on one core with every default. The
// first seven fields mean what risc1.RunOptions documents: Cores > 1 or
// Race selects the shared-memory machine. Windows and SpillBatch size the
// register file and its spill policy (0 = the paper's 8 windows, one window
// per trap), and Fault injects memory failures (the plan is copied per run,
// so one plan can serve many runs).
type Config struct {
	MaxCycles uint64
	Engine    core.Engine
	Policy    pipeline.Policy
	Profile   bool
	Cores     int
	Race      bool
	Monitor   *Monitor

	Windows    int
	SpillBatch int
	Fault      *mem.FaultPlan
}

// Monitor observes a run in flight. Both callbacks run on the simulation
// goroutine: a callback that blocks stalls the guest program, which is how a
// streaming consumer applies backpressure deliberately. Either field may be
// nil. A monitor never changes architectural results.
type Monitor struct {
	// Console receives each console rendering (one putc byte or one putint
	// decimal string) as the guest emits it, including output the retained
	// console buffer drops at its cap — live consumers see everything even
	// when Info.Console is truncated.
	Console func(chunk string)
	// Progress is called periodically — at run-batch boundaries on the
	// single-core machines, after each scheduling round on the SMP
	// machine — with the instruction and cycle counters retired so far.
	Progress func(instructions, cycles uint64)
}

// arm installs the run's fault plan and monitor on the machine's memory and
// progress hook, after the image is loaded. Runs without them stay
// zero-overhead.
func (cfg *Config) arm(m *mem.Memory, progress *func(instructions, cycles uint64)) {
	if cfg.Fault != nil {
		plan := *cfg.Fault
		m.SetFaultPlan(&plan)
	}
	if mon := cfg.Monitor; mon != nil {
		if mon.Console != nil {
			m.SetConsoleSink(mon.Console)
		}
		if mon.Progress != nil {
			*progress = mon.Progress
		}
	}
}

// Run builds a fresh machine for img — its target, or the shared-memory
// machine when cfg asks for more than one core or for the race detector —
// loads the image, arms cfg's fault plan and monitor, runs to completion
// honoring ctx and describes the run. Run owns the machine for exactly this
// run: once the Result is read out of it, on success and on every error, it
// releases the machine's memory for the next run to reuse. The image is not
// modified, so concurrent runs of one image are safe.
func Run(ctx context.Context, img *Image, cfg Config) (*Result, error) {
	if cfg.Cores < 0 || cfg.Cores > smp.MaxCores {
		return nil, smp.ErrBadCores
	}
	shared := cfg.Cores > 1 || cfg.Race
	if shared && img.target != cc.RISCWindowed {
		return nil, smp.ErrWindowedOnly
	}
	if img.cx != nil {
		return runCX(ctx, img.cx, cfg)
	}
	ccfg := core.Config{
		Flat:           img.target == cc.RISCFlat,
		Windows:        cfg.Windows,
		SpillBatch:     cfg.SpillBatch,
		SaveStackBytes: 64 << 10,
		MaxCycles:      cfg.MaxCycles,
		Engine:         cfg.Engine,
	}
	var (
		cpu  *core.CPU
		pipe *pipeline.Machine
		sm   *smp.Machine
		err  error
	)
	switch {
	case shared:
		// smp.New loads the image through core 0.
		sm, err = smp.New(img.risc, smp.Config{Cores: max(cfg.Cores, 1), Race: cfg.Race, Core: ccfg})
		if err != nil {
			return nil, err
		}
		cpu = sm.Core(0)
	case img.target == cc.RISCPipelined:
		pipe = pipeline.New(ccfg, cfg.Policy)
		cpu = pipe.CPU()
		err = pipe.Load(img.risc)
	default:
		cpu = core.New(ccfg)
		err = cpu.Load(img.risc)
	}
	defer cpu.Mem.Release() // the cores of an SMP machine share this memory
	if err != nil {
		return nil, err
	}
	run, progress := cpu.RunContext, &cpu.Progress
	if sm != nil {
		run, progress = sm.Run, &sm.Progress
	}
	cfg.arm(cpu.Mem, progress)
	if err := run(ctx); err != nil {
		return nil, err
	}

	s := cpu.Stats()
	res := &Result{Info: CoreInfo(cpu, s, len(img.risc.Bytes)), Stats: s}
	if cfg.Profile {
		res.Profile = HeatProfile(cpu)
		res.NGrams = append(HotNGrams(cpu, 2, 8), HotNGrams(cpu, 3, 8)...)
	}
	if pipe != nil {
		t := pipe.Result()
		res.Timing = &t
		res.Pipeline = pipelineInfo(t, res.Cycles)
		// Report the measured pipeline timing as the run's headline
		// cycles; the single-cycle count stays in Pipeline.RefCycles.
		res.Cycles, res.Time = t.Cycles, timing.RiscTime(t.Cycles)
	}
	if sm != nil {
		res.SMP = smpInfo(sm, &res.Info)
		if cfg.Race {
			res.Races = sm.Races()
		}
	}
	return res, nil
}

// runCX is Run for the CX comparator, which has a single interpreter.
func runCX(ctx context.Context, img *cisc.Image, cfg Config) (*Result, error) {
	m := cisc.New(cisc.Config{MaxCycles: cfg.MaxCycles})
	defer m.Mem.Release()
	if err := m.Load(img); err != nil {
		return nil, err
	}
	cfg.arm(m.Mem, &m.Progress)
	if err := m.RunContext(ctx); err != nil {
		return nil, err
	}
	s := m.Stats()
	return &Result{Stats: s, Info: Info{
		Console:          m.Console(),
		ConsoleTruncated: m.Mem.ConsoleTruncated(),
		Instructions:     s.Instructions,
		Cycles:           s.Cycles,
		Time:             timing.CXTime(s.Cycles),
		CodeBytes:        img.Size(),
		Calls:            s.Calls,
		MaxCallDepth:     s.MaxCallDepth,
		DataReadBytes:    s.DataReads,
		DataWriteBytes:   s.DataWrites,
		FetchBytes:       s.FetchBytes,
	}}, nil
}

// Result is one run's outcome: the Info every caller reads, plus the raw
// measurements only the experiment lab needs. None of it lives in the
// machine's released memory.
type Result struct {
	Info
	// Stats is the full statistics block of the machine (core 0 on the SMP
	// machine), instruction-mix maps included.
	Stats *stats.Stats
	// Timing is the pipelined target's raw timing result; nil otherwise.
	Timing *pipeline.Result
}

// Info summarizes one program execution.
type Info struct {
	Console string
	// ConsoleTruncated reports that the program printed more than the
	// console device retains (mem.DefaultConsoleLimit) and the excess was
	// dropped.
	ConsoleTruncated bool
	Instructions     uint64
	Cycles           uint64 // processor cycles (RISC) or microcycles (CX)
	Time             time.Duration
	CodeBytes        int
	DataBytes        int

	Calls            uint64
	MaxCallDepth     int
	WindowOverflows  uint64
	WindowUnderflows uint64
	DataReadBytes    uint64
	DataWriteBytes   uint64
	FetchBytes       uint64

	// Trace-tier meta statistics, populated on RISC targets when the auto
	// or trace engine ran. They live outside the architectural statistics
	// above on purpose: all engines agree on those exactly, and only the
	// trace tier has traces to count.
	TracesCompiled     uint64
	TraceSideExits     uint64
	TraceInvalidations uint64
	// TraceInstructions counts dynamic instructions retired inside
	// compiled traces (a subset of Instructions).
	TraceInstructions uint64
	// HotBlocks counts block leaders whose execution heat reached the
	// trace-compile threshold.
	HotBlocks int
	// Profile and NGrams carry the full heat table and the measured
	// dynamic opcode n-grams; both are filled only when Config.Profile is
	// set.
	Profile []BlockProfile
	NGrams  []NGramCount

	// Pipeline carries the cycle-accurate timing breakdown for runs on
	// the pipelined target; nil for every other target. For those runs
	// Cycles and Time above are the measured pipeline values, and
	// Pipeline.RefCycles preserves the single-cycle model's count.
	Pipeline *PipelineInfo

	// SMP carries the shared-memory machine's breakdown for runs with
	// more than one core or the race detector; nil otherwise. For those
	// runs Instructions and the data-traffic totals above aggregate every
	// core, and Cycles is the machine's makespan (max over cores of
	// executed plus contention cycles).
	SMP *SMPInfo

	// Races holds the data races the dynamic detector observed, filled
	// only when Config.Race is set. Empty means the execution was
	// race-free under the hybrid lockset/happens-before test; each entry
	// records the two unsynchronized accesses with core, PC and source
	// line. Reporting is capped per run, one race per shared word.
	Races []smp.Race
}

// SMPInfo is the shared-memory machine's execution breakdown.
type SMPInfo struct {
	Cores int `json:"cores"`
	// ElapsedCycles is the makespan under the interconnect cost model.
	ElapsedCycles uint64 `json:"elapsed_cycles"`
	// ContentionCycles totals the arbitration penalty charged across cores
	// for rounds where more than one core touched memory.
	ContentionCycles uint64 `json:"contention_cycles"`
	// Rounds counts scheduler rounds; Spawns counts workers launched and
	// SpawnFails the spawn requests that fell back to an inline call.
	Rounds     uint64          `json:"rounds"`
	Spawns     uint64          `json:"spawns"`
	SpawnFails uint64          `json:"spawn_fails"`
	PerCore    []smp.CoreStats `json:"per_core"`
}

// PipelineInfo is the cycle-accurate pipeline's timing breakdown.
type PipelineInfo struct {
	Policy string  `json:"policy"`
	Cycles uint64  `json:"cycles"`
	CPI    float64 `json:"cpi"`
	// RefCycles is what the single-cycle cost model charges the same
	// execution — the baseline the pipeline is measured against.
	RefCycles          uint64  `json:"ref_cycles"`
	LoadUseStallCycles uint64  `json:"load_use_stall_cycles"`
	WindowStallCycles  uint64  `json:"window_stall_cycles"`
	MemPortStallCycles uint64  `json:"mem_port_stall_cycles"`
	FlushBubbleCycles  uint64  `json:"flush_bubble_cycles"`
	ForwardsEXMEM      uint64  `json:"forwards_ex_mem"`
	ForwardsMEMWB      uint64  `json:"forwards_mem_wb"`
	DelaySlots         uint64  `json:"delay_slots"`
	DelaySlotsFilled   uint64  `json:"delay_slots_filled"`
	FillRatePct        float64 `json:"fill_rate_pct"`
}

// BlockProfile is one row of the execution-heat profile: a basic-block
// leader, how many times it dispatched, and whether a live compiled trace
// covers it.
type BlockProfile struct {
	PC    uint32 `json:"pc"`
	Count uint64 `json:"count"`
	Trace bool   `json:"trace"`
}

// NGramCount is one measured dynamic opcode n-gram — the profile the
// trace tier's instruction-fusion repertoire grows from.
type NGramCount struct {
	Ops   []string `json:"ops"`
	Count uint64   `json:"count"`
}

// CoreInfo describes a RISC I core's execution so far from its statistics
// s; imageBytes is the size of the image it loaded.
func CoreInfo(cpu *core.CPU, s *stats.Stats, imageBytes int) Info {
	ts := cpu.TraceStats()
	info := Info{
		Console:          cpu.Console(),
		ConsoleTruncated: cpu.Mem.ConsoleTruncated(),
		Instructions:     s.Instructions,
		Cycles:           s.Cycles,
		Time:             timing.RiscTime(s.Cycles),
		CodeBytes:        imageBytes,
		Calls:            s.Calls,
		MaxCallDepth:     s.MaxCallDepth,
		WindowOverflows:  s.WindowOverflow,
		WindowUnderflows: s.WindowUnderflow,
		DataReadBytes:    s.DataReads,
		DataWriteBytes:   s.DataWrites,
		FetchBytes:       s.FetchBytes,

		TracesCompiled:     ts.Compiled,
		TraceSideExits:     ts.SideExits,
		TraceInvalidations: ts.Invalidations,
		TraceInstructions:  ts.Instructions,
	}
	thr := cpu.HotThreshold()
	for _, h := range cpu.HeatProfile() {
		if h.Count >= thr {
			info.HotBlocks++
		}
	}
	return info
}

// HeatProfile returns a core's execution-heat table, hottest first.
func HeatProfile(cpu *core.CPU) []BlockProfile {
	heat := cpu.HeatProfile()
	out := make([]BlockProfile, len(heat))
	for i, h := range heat {
		out[i] = BlockProfile{PC: h.PC, Count: h.Count, Trace: h.Trace}
	}
	return out
}

// HotNGrams returns a core's top measured dynamic opcode n-grams (n clamped
// to 2 or 3).
func HotNGrams(cpu *core.CPU, n, top int) []NGramCount {
	var out []NGramCount
	for _, g := range cpu.HotNGrams(n, top) {
		out = append(out, NGramCount{Ops: g.Ops, Count: g.Count})
	}
	return out
}

// pipelineInfo converts a pipeline timing result to the Info form.
// refCycles is the single-cycle model's count for the same execution.
func pipelineInfo(r pipeline.Result, refCycles uint64) *PipelineInfo {
	return &PipelineInfo{
		Policy:             r.Policy.String(),
		Cycles:             r.Cycles,
		CPI:                r.CPI(),
		RefCycles:          refCycles,
		LoadUseStallCycles: r.LoadUseStallCycles,
		WindowStallCycles:  r.WindowStallCycles,
		MemPortStallCycles: r.MemPortStallCycles,
		FlushBubbleCycles:  r.FlushBubbleCycles,
		ForwardsEXMEM:      r.ForwardsEXMEM,
		ForwardsMEMWB:      r.ForwardsMEMWB,
		DelaySlots:         r.DelaySlots,
		DelaySlotsFilled:   r.DelaySlotsFilled,
		FillRatePct:        100 * r.FillRate(),
	}
}

// smpInfo describes a finished SMP run and folds the whole machine into
// info's headline fields, which hold core 0's figures on entry: total
// retirements, calls and traffic, and the makespan as the run's cycles.
func smpInfo(m *smp.Machine, info *Info) *SMPInfo {
	si := &SMPInfo{
		Cores:            m.Cores(),
		ElapsedCycles:    m.Elapsed(),
		ContentionCycles: m.ContentionCycles(),
		Rounds:           m.Rounds(),
		Spawns:           m.Spawns(),
		SpawnFails:       m.SpawnFails(),
		PerCore:          m.CoreStats(),
	}
	info.Instructions, info.DataReadBytes, info.DataWriteBytes = 0, 0, 0
	info.FetchBytes, info.Calls = 0, 0
	for i, cs := range si.PerCore {
		info.Instructions += cs.Instructions
		info.DataReadBytes += cs.DataReadBytes
		info.DataWriteBytes += cs.DataWriteBytes
		cst := m.Core(i).Stats()
		info.FetchBytes += cst.FetchBytes
		info.Calls += cst.Calls
	}
	info.Cycles = si.ElapsedCycles
	info.Time = timing.RiscTime(si.ElapsedCycles)
	return si
}
