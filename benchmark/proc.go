package main

import (
	"runtime"
	"syscall"
	"time"
)

// procSample is the process-level state read at a round boundary. Deltas
// of two samples give the round's CPU, allocation and GC figures.
type procSample struct {
	CPU        time.Duration // user + system, whole process (getrusage)
	Mallocs    uint64
	AllocBytes uint64
	NumGC      uint32
	MaxRSSKB   int64
	// pauses is the runtime's ring of the last 256 GC pause times, read
	// together with NumGC so the two agree.
	pauses [256]uint64
}

func sampleProc() procSample {
	var ru syscall.Rusage
	// Getrusage on RUSAGE_SELF cannot fail with a valid pointer.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return procSample{
		CPU:        time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		Mallocs:    ms.Mallocs,
		AllocBytes: ms.TotalAlloc,
		NumGC:      ms.NumGC,
		MaxRSSKB:   ru.Maxrss,
		pauses:     ms.PauseNs,
	}
}

// heapLive forces two collections (the second frees what the first's
// finalizers and sweep released) and reports the bytes still reachable.
// Called at the end-of-submit barrier, with the standing flows live.
func heapLive() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// maxGCPause returns the longest stop-the-world pause among the GC cycles
// that ran between two samples, as far as the ring remembers.
func maxGCPause(before, after procSample) time.Duration {
	var max uint64
	for n := after.NumGC; n > before.NumGC && after.NumGC-n < uint32(len(after.pauses)); n-- {
		if p := after.pauses[(n+255)%256]; p > max {
			max = p
		}
	}
	return time.Duration(max)
}
