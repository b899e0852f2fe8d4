// Package enginefuzz is the program generator behind the engine
// differential fuzzers: the seed corpus, the way fuzzer input becomes a
// runnable image, and the cycle limits each input is cut at. The core's
// FuzzEngineEquivalence (step vs block vs trace) and the pipeline's
// FuzzPipelineEquivalence (per-instruction timing vs block memo) share it,
// so every program that stresses one engine boundary stresses the other.
package enginefuzz

import (
	"math/rand"

	"risc1/internal/asm"
)

// MemSize is the RAM of a fuzzed machine: big enough for the seeds' data,
// small enough that wild addresses fault.
const MemSize = 1 << 16

// Seed is one corpus entry: raw code bytes, loaded at address 0 and entered
// there, and the limit Limits expands.
type Seed struct {
	Code  []byte
	Limit uint32
}

// Seeds returns the seed corpus. It deliberately includes engine-hostile
// programs: a loop whose branch flips direction after warming up (forcing
// a superblock side exit), a loop that stores over its own compiled body
// (forcing block and trace invalidation mid-flight), a hot loop that
// faults after it compiled, and deep window recursion (spill and fill
// traps at block terminators).
func Seeds() []Seed {
	random := make([]byte, 128)
	rand.New(rand.NewSource(41)).Read(random)
	return []Seed{
		{asm.MustAssemble(`
	main:	add r0,#0,r1
		li #1000,r2
	loop:	add r1,#1,r1
		cmp r1,r2
		blt loop
		nop
		stl r1,(r0)#-252
		ret r25,#8
		nop
	`).Bytes, 30000},
		{asm.MustAssemble(`
	main:	add r0,#12,r10
		callr r25,sum
		nop
		stl r10,(r0)#-252
		ret r25,#8
		nop
	sum:	cmp r26,#0
		bgt rec
		nop
		add r0,#0,r26
		ret r25,#8
		nop
	rec:	sub r26,#1,r10
		callr r25,sum
		nop
		add r26,r10,r26
		ret r25,#8
		nop
	`).Bytes, 30000},
		{[]byte{0x22, 0x00, 0x00, 0x01, 0x88, 0x32, 0x00, 0x08}, 100},
		// Side exit: blt is taken for 40 trips — long past the hot
		// threshold — then falls through, so a compiled superblock's
		// guard must bail.
		{asm.MustAssemble(`
	main:	add r0,#0,r1
	loop:	add r1,#1,r1
		cmp r1,#40
		blt loop
		sub r1,#1,r2
		ret r25,#8
		nop
	`).Bytes, 20000},
		// Self-modifying store into compiled code: once hot, the loop
		// patches its own body, which must invalidate the block and the
		// trace exactly at the store boundary.
		{asm.MustAssemble(`
	main:	li #donor,r3
		ldl (r3)#0,r1
		li #patch,r4
		add r0,#0,r2
	patch:	add r2,#1,r2
		cmp r2,#30
		bge done
		nop
		cmp r2,#20
		blt patch
		nop
		stl r1,(r4)#0
		b patch
		nop
	done:	ret r25,#8
		nop
	donor:	add r2,#3,r2
	`).Bytes, 20000},
		// Mid-loop fault: the load's address register climbs until the
		// access leaves memory, long after the loop compiled.
		{asm.MustAssemble(`
	main:	li #0x8000,r1
	loop:	add r1,#64,r1
		ldl (r1)#0,r2
		cmp r2,#1
		bne loop
		nop
		ret r25,#8
		nop
	`).Bytes, 30000},
		{random, 5000},
	}
}

// Image turns fuzzer input into an image loaded and entered at address 0,
// or reports false for input too short or too long to be worth running.
func Image(code []byte) (*asm.Image, bool) {
	if len(code) == 0 || len(code) > 4096 {
		return nil, false
	}
	return &asm.Image{Org: 0, Entry: 0, Bytes: code}, true
}

// Limits returns the MaxCycles values an input runs under: the full budget
// derived from limit and two truncations of it, which stop the run at
// arbitrary offsets inside blocks and traces.
func Limits(limit uint32) [3]uint64 {
	budget := 1 + uint64(limit)%30000
	return [3]uint64{budget/4 + 1, budget/2 + 1, budget}
}
