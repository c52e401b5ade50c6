package main

import (
	"syscall"
	"time"
)

// cpuTime returns the CPU time this process has used so far, over all its
// threads (user plus system). Unlike wall time it does not count time the
// process spent waiting for a CPU, neither in the kernel's run queue
// behind other processes nor, on a paravirtualized guest with steal-time
// accounting, while the hypervisor ran another guest on its vCPU. On a
// shared host those waits come and go with the neighbours' load, so
// CPU-time costs repeat between runs where wall-clock times do not.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
