package main

import (
	"sync/atomic"
	"time"

	"ghostspec/internal/arch"
	"ghostspec/internal/hyp"
)

// hookStat accumulates calls to one hook and the time spent in them.
type hookStat struct {
	n, ns atomic.Int64
}

func (s *hookStat) add(d time.Duration) {
	s.n.Add(1)
	s.ns.Add(int64(d))
}

// meanMicros is the mean time per call in microseconds (0 when the hook
// never ran).
func (s *hookStat) meanMicros() float64 {
	n := s.n.Load()
	if n == 0 {
		return 0
	}
	return float64(s.ns.Load()) / float64(n) / 1e3
}

// trapClock is one hardware thread's open trap: when it entered and how
// much of it so far was spent in hooks. Only that thread touches it.
type trapClock struct {
	start time.Time
	hooks time.Duration
}

// hookTimer is a pass-through hyp.Instrumentation that times every call
// into the instrumentation it wraps (the ghost recorder). The benchmark
// installs it with SetInstrumentation right after ghost.Attach, the way
// coverage.Wrap is installed, so the oracle's recording and checking
// cost gets rows of its own without a span inside the program.
type hookTimer struct {
	inner hyp.Instrumentation

	entry, exit, pre, post, other hookStat
	// trapSelf is the trap bracket (TrapEntry start to TrapExit end)
	// minus the hook time inside it: the hypervisor's own share of
	// each trap.
	trapSelf hookStat
	cpus     []trapClock
}

func newHookTimer(inner hyp.Instrumentation, nrCPUs int) *hookTimer {
	return &hookTimer{inner: inner, cpus: make([]trapClock, nrCPUs)}
}

// hookTime is the total time spent in the wrapped hooks.
func (h *hookTimer) hookTime() time.Duration {
	var ns int64
	for _, s := range []*hookStat{&h.entry, &h.exit, &h.pre, &h.post, &h.other} {
		ns += s.ns.Load()
	}
	return time.Duration(ns)
}

// merge folds another timer's totals into h.
func (h *hookTimer) merge(o *hookTimer) {
	for _, p := range [][2]*hookStat{
		{&h.entry, &o.entry}, {&h.exit, &o.exit}, {&h.pre, &o.pre},
		{&h.post, &o.post}, {&h.other, &o.other}, {&h.trapSelf, &o.trapSelf},
	} {
		p[0].n.Add(p[1].n.Load())
		p[0].ns.Add(p[1].ns.Load())
	}
}

// lockEvents is the number of LockAcquired plus LockReleasing calls.
func (h *hookTimer) lockEvents() int64 { return h.pre.n.Load() + h.post.n.Load() }

// inTrap charges d to cpu's open trap, if one is open.
func (h *hookTimer) inTrap(cpu int, d time.Duration) {
	if cpu >= 0 && cpu < len(h.cpus) && !h.cpus[cpu].start.IsZero() {
		h.cpus[cpu].hooks += d
	}
}

func (h *hookTimer) TrapEntry(cpu int, reason arch.ExitReason) {
	t0 := time.Now()
	h.inner.TrapEntry(cpu, reason)
	d := time.Since(t0)
	h.entry.add(d)
	if cpu >= 0 && cpu < len(h.cpus) {
		h.cpus[cpu] = trapClock{start: t0, hooks: d}
	}
}

func (h *hookTimer) TrapExit(cpu int) {
	t0 := time.Now()
	h.inner.TrapExit(cpu)
	t1 := time.Now()
	h.exit.add(t1.Sub(t0))
	if cpu >= 0 && cpu < len(h.cpus) && !h.cpus[cpu].start.IsZero() {
		c := h.cpus[cpu]
		h.trapSelf.add(t0.Sub(c.start) - c.hooks)
		h.cpus[cpu] = trapClock{}
	}
}

func (h *hookTimer) LockAcquired(cpu int, c hyp.Component) {
	t0 := time.Now()
	h.inner.LockAcquired(cpu, c)
	d := time.Since(t0)
	h.pre.add(d)
	h.inTrap(cpu, d)
}

func (h *hookTimer) LockReleasing(cpu int, c hyp.Component) {
	t0 := time.Now()
	h.inner.LockReleasing(cpu, c)
	d := time.Since(t0)
	h.post.add(d)
	h.inTrap(cpu, d)
}

func (h *hookTimer) ReadOnce(cpu int, pa arch.PhysAddr, val uint64) {
	t0 := time.Now()
	h.inner.ReadOnce(cpu, pa, val)
	h.otherDone(cpu, t0)
}

func (h *hookTimer) GuestExit(cpu int, handle hyp.Handle, vcpu int, op hyp.GuestOp) {
	t0 := time.Now()
	h.inner.GuestExit(cpu, handle, vcpu, op)
	h.otherDone(cpu, t0)
}

func (h *hookTimer) MemcacheAlloc(cpu int, pfn arch.PFN) {
	t0 := time.Now()
	h.inner.MemcacheAlloc(cpu, pfn)
	h.otherDone(cpu, t0)
}

func (h *hookTimer) MemcacheFree(cpu int, pfn arch.PFN) {
	t0 := time.Now()
	h.inner.MemcacheFree(cpu, pfn)
	h.otherDone(cpu, t0)
}

func (h *hookTimer) HypPanic(cpu int, msg string) {
	t0 := time.Now()
	h.inner.HypPanic(cpu, msg)
	h.otherDone(cpu, t0)
}

func (h *hookTimer) otherDone(cpu int, t0 time.Time) {
	d := time.Since(t0)
	h.other.add(d)
	h.inTrap(cpu, d)
}
