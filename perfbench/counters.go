package main

import (
	"fmt"
	"runtime/metrics"
	"syscall"
	"time"

	"ghostspec/internal/telemetry"
)

// countersRead are the program's own telemetry counters the per-layer
// metrics are built from, read as deltas of telemetry.Snapshot().
var countersRead = []string{
	"hyp_traps_total",
	"tlb_hits_total", "tlb_misses_total", "tlb_invalidations_total",
	"pgtable_walks_total", "pgtable_table_pages_allocated_total",
	"ghost_cache_hits_total", "ghost_cache_misses_total",
	"ghost_cache_partial_walks_total", "ghost_cache_pages_reinterpreted_total",
}

// counterDelta is the growth of countersRead over some interval.
type counterDelta map[string]uint64

func counterDeltaOf(before, after telemetry.Snap, name string) uint64 {
	a, _ := after.Counter(name)
	b, _ := before.Counter(name)
	return a - b
}

// merge accumulates another delta.
func (c *counterDelta) merge(o counterDelta) {
	if *c == nil {
		*c = counterDelta{}
	}
	for k, v := range o {
		(*c)[k] += v
	}
}

// add accumulates the growth between two snapshots.
func (c *counterDelta) add(before, after telemetry.Snap) {
	if *c == nil {
		*c = counterDelta{}
	}
	for _, name := range countersRead {
		(*c)[name] += counterDeltaOf(before, after, name)
	}
}

// runtimeStats returns the bytes the Go runtime has allocated on the
// heap so far, the CPU seconds it has accounted as busy, and the part
// of those spent on garbage collection.
func runtimeStats() (alloc uint64, busy, gc float64) {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
	}
	metrics.Read(s)
	return s[0].Value.Uint64(), s[1].Value.Float64() - s[2].Value.Float64(), s[3].Value.Float64()
}

// peakRSSMB is the process's peak resident set size in MiB.
func peakRSSMB() (float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	return float64(ru.Maxrss) / 1024, nil // Linux reports KiB
}

// cpuTime is the CPU time the process has used so far, user plus
// system, on all its threads. Unlike wall time it leaves out time the
// machine spent on other tenants.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	// The target is valid and the pointer is live: this cannot fail.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// cost is what a measured interval took: wall and CPU time, heap bytes
// allocated, and the runtime's busy and GC CPU seconds.
type cost struct {
	wall, cpu time.Duration
	alloc     uint64
	busy, gc  float64
}

func (c *cost) add(o cost) {
	c.wall += o.wall
	c.cpu += o.cpu
	c.alloc += o.alloc
	c.busy += o.busy
	c.gc += o.gc
}

// measure runs f and returns what it cost the whole process: a campaign
// runs on the engine's own goroutines, and garbage collection of what f
// allocates runs on any thread.
func measure(f func()) cost {
	a0, b0, g0 := runtimeStats()
	w0, c0 := time.Now(), cpuTime()
	f()
	c := cost{wall: time.Since(w0), cpu: cpuTime() - c0}
	a1, b1, g1 := runtimeStats()
	c.alloc, c.busy, c.gc = a1-a0, b1-b0, g1-g0
	return c
}

// measureWork is measure for a unit's main work, which also records the
// growth of the program's counters.
func measureWork(into *counterDelta, f func()) cost {
	before := telemetry.Snapshot()
	c := measure(f)
	into.add(before, telemetry.Snapshot())
	return c
}
