package main

import (
	"fmt"

	"risc1"
	"risc1/internal/prog"
)

// spec names one reported metric and its unit.
type spec struct{ name, unit string }

// machine is one simulated machine: a compilation target and, for the
// shared-memory machine, its core count (0 for a single core).
type machine struct {
	name   string
	target risc1.Target
	cores  int
}

// suiteCores is the core count the parallel kernels run at.
const suiteCores = 4

// suiteMachines are the machines of a suite pass, in canonical order.
var suiteMachines = []machine{
	{"windowed", risc1.RISCWindowed, 0},
	{"flat", risc1.RISCFlat, 0},
	{"cisc", risc1.CISC, 0},
	{"pipelined", risc1.RISCPipelined, 0},
	{"smp", risc1.RISCWindowed, suiteCores},
}

// kernels are the programs the suite runs on m.
func (m machine) kernels() []prog.Benchmark {
	if m.cores > 1 {
		return prog.Parallel()
	}
	return prog.All()
}

// probeName names m in the set-up probe's metrics, which give the
// shared-memory machine's core count.
func (m machine) probeName() string {
	if m.cores > 1 {
		return fmt.Sprintf("smp%d", m.cores)
	}
	return m.name
}

// engineNames are the RISC core engine tiers of the ladder, slowest first.
var engineNames = []string{"step", "block", "trace"}

// endToEndMetrics lists what a --trace 0 run reports, on every workload.
func endToEndMetrics() []spec {
	var out []spec
	for _, m := range suiteMachines {
		out = append(out, spec{m.name + "_mips", "Minstr/s"})
	}
	return append(out,
		spec{"p50_ms", "ms"},
		spec{"p99_ms", "ms"},
		spec{"rps", "1/s"},
		spec{"setup_s", "s"},
	)
}

// perLayerMetrics lists what a --trace 1 run reports, on every workload.
func perLayerMetrics() []spec {
	var out []spec
	for _, e := range engineNames {
		for _, k := range prog.All() {
			out = append(out, spec{"core." + e + "." + k.Name + ".mips", "Minstr/s"})
		}
		out = append(out, spec{"core." + e + ".mips", "Minstr/s"})
	}
	out = append(out,
		spec{"core.trace.compiled", "count"},
		spec{"core.trace.side_exits", "count"},
		spec{"core.trace.invalidations", "count"},
		spec{"core.trace.instr_pct", "%"},
	)
	for _, m := range suiteMachines {
		out = append(out,
			spec{"risc1.setup_us." + m.probeName(), "us"},
			spec{"risc1.setup_bytes." + m.probeName(), "B"},
			spec{"risc1.setup_allocs." + m.probeName(), "count"},
		)
	}
	for _, layer := range []string{"cc", "asm"} {
		for _, k := range prog.All() {
			out = append(out, spec{layer + "." + k.Name + ".us", "us"})
		}
		out = append(out,
			spec{layer + ".suite_ms", "ms"},
			spec{layer + ".request_us", "us"},
		)
	}
	return append(out,
		spec{"serve.request_p50_us", "us"},
		spec{"serve.run_p50_us", "us"},
		spec{"serve.overhead_p50_us", "us"},
		spec{"serve.wall_p50_ms", "ms"},
		spec{"serve.wall_p99_ms", "ms"},
		spec{"serve.cache_hit_ratio", "ratio"},
		spec{"serve.shed", "count"},
		spec{"gc.cycles_per_kop", "count"},
		spec{"gc.pause_ms", "ms"},
		spec{"gc.alloc_bytes_per_op", "B"},
		spec{"trace.overhead_pct", "%"},
	)
}

// unitOf returns the unit of a named metric.
func unitOf(name string) string {
	for _, list := range [][]spec{endToEndMetrics(), perLayerMetrics()} {
		for _, s := range list {
			if s.name == name {
				return s.unit
			}
		}
	}
	return ""
}
