package benchmark

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		// Getrusage(RUSAGE_SELF) fails only for an invalid argument.
		panic(fmt.Sprintf("benchmark: getrusage: %v", err))
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// rssInterval is how often sampleResident samples the resident set.
const rssInterval = 10 * time.Millisecond

// sampleResident samples the process's resident set in MB every
// rssInterval until stop closes, and returns the samples it could read.
func sampleResident(stop <-chan struct{}) []float64 {
	tick := time.NewTicker(rssInterval)
	defer tick.Stop()
	var mbs []float64
	for {
		if mb, err := residentMB(); err == nil {
			mbs = append(mbs, mb)
		}
		select {
		case <-stop:
			return mbs
		case <-tick.C:
		}
	}
}

// residentMB is the process's current resident set in MB, from
// /proc/self/statm.
func residentMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0, err
	}
	fields := strings.Fields(string(b))
	if len(fields) < 2 {
		return 0, fmt.Errorf("benchmark: malformed /proc/self/statm %q", b)
	}
	pages, err := strconv.ParseFloat(fields[1], 64)
	if err != nil {
		return 0, fmt.Errorf("benchmark: parse /proc/self/statm: %w", err)
	}
	return pages * float64(os.Getpagesize()) / 1e6, nil
}
