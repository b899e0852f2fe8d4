package main

import (
	"syscall"
	"time"
	"unsafe"
)

// The benchmark times work in host CPU time as well as wall time. On the
// 2-vCPU Xeon virtual machine its figures were measured on, other virtual
// machines took the CPU away for a twentieth to two fifths of a run (steal
// time), and wall-clock throughput spread by 46% from run to run. A
// thread's CPU clock stops while its CPU is stolen, so end-to-end times
// are CPU times of the thread that did the work; wall times are reported
// beside them as per-layer metrics.

// Linux clock ids of clock_gettime(2).
const (
	clockProcessCPU = 2
	clockThreadCPU  = 3
)

func cpuClock(id uintptr) time.Duration {
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, id, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		panic("clock_gettime: " + errno.Error()) // both clocks exist on every Linux the benchmark supports
	}
	return time.Duration(ts.Nano())
}

// threadCPU is the CPU time the calling OS thread has used. Callers lock
// their goroutine to its thread around the work they time.
func threadCPU() time.Duration { return cpuClock(clockThreadCPU) }

// processCPU is the CPU time every thread of the process has used.
func processCPU() time.Duration { return cpuClock(clockProcessCPU) }

// stamp is one instant on the wall clock and on the calling thread's CPU
// clock.
type stamp struct {
	wall time.Time
	cpu  time.Duration
}

func now() stamp { return stamp{wall: time.Now(), cpu: threadCPU()} }
