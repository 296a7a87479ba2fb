package main

// Process and host accounting: CPU time, GC and allocation counts,
// peak RSS, and the host fingerprint printed with every run.

import (
	"bufio"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"syscall"
	"time"
)

// cpuNow is the process's user+system CPU time so far.
func cpuNow() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set size in MB (Maxrss is
// in KiB on Linux).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// memCounts are the runtime counters a timed phase is bracketed with.
type memCounts struct {
	NumGC   uint32
	Mallocs uint64
}

func memNow() memCounts {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memCounts{NumGC: ms.NumGC, Mallocs: ms.Mallocs}
}

// host is the fingerprint that makes a figure comparable later.
type host struct {
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go"`
	Commit     string `json:"commit"`
}

func fingerprint() host {
	h := host{CPU: "unknown", NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Commit: "unknown"}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
		_ = f.Close()
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				h.Commit = s.Value
			}
		}
	}
	return h
}

// calibrate times a fixed compute loop (median of five) in ns per
// iteration: a reference for how fast the host ran around a run, since
// a shared host's speed drifts from one minute to the next.
func calibrate() float64 {
	var per []float64
	x := uint64(1)
	for r := 0; r < 5; r++ {
		t0 := nanotime()
		for i := 0; i < calibrateIters; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		per = append(per, float64(nanotime()-t0)/calibrateIters)
	}
	calibrateSink = x
	return med(per)
}

const calibrateIters = 5_000_000

var calibrateSink uint64
