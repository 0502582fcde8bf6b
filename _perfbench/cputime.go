package main

import (
	"syscall"
	"time"
	"unsafe"
)

// The benchmark runs on Linux: it reads CPU clocks with clock_gettime.
const (
	clockProcessCPUTimeID = 2 // CLOCK_PROCESS_CPUTIME_ID
	clockThreadCPUTimeID  = 3 // CLOCK_THREAD_CPUTIME_ID
)

func clock(id uintptr) time.Duration {
	var ts syscall.Timespec
	_, _, e := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, id, uintptr(unsafe.Pointer(&ts)), 0)
	if e != 0 {
		panic("clock_gettime: " + e.Error())
	}
	return time.Duration(ts.Nano())
}

// cpuTime returns the CPU time every thread of the process has used so far,
// to the nanosecond. The kernel charges a thread only for the time it ran,
// so time spent runnable behind other processes, or stolen by the
// hypervisor from a guest that accounts steal time, is not in it.
func cpuTime() time.Duration { return clock(clockProcessCPUTimeID) }

// threadCPUTime returns the CPU time the calling OS thread has used; the
// caller locks its goroutine to the thread.
func threadCPUTime() time.Duration { return clock(clockThreadCPUTimeID) }
