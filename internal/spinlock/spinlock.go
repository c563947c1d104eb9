// Package spinlock provides the hypervisor's spinlocks, with the
// instrumentation hooks the ghost specification attaches to.
//
// pKVM protects each page table and the VM-metadata table with its own
// lock; the ghost machinery records the abstraction of the protected
// component exactly when its lock is taken and just before it is
// released (paper §3.2). The hooks here are those attachment points:
// they run while the lock is held, so the recorded abstraction is of
// owned state.
package spinlock

import (
	"sync"
	"time"

	"ghostspec/internal/analysis/preempt"
	"ghostspec/internal/telemetry"
	"ghostspec/internal/telemetry/trace"
)

// Contention wait-time histograms, one per lock rank (0 = unranked).
// Bucketed per rank rather than per component so the label space stays
// fixed while still separating "waiting on the VM table" from "waiting
// on a guest stage 2" — the rank is what the acquisition order is
// about.
var lockWaitByRank = [5]*telemetry.Histogram{
	telemetry.NewHistogram(`spinlock_wait_ns{rank="0"}`),
	telemetry.NewHistogram(`spinlock_wait_ns{rank="1"}`),
	telemetry.NewHistogram(`spinlock_wait_ns{rank="2"}`),
	telemetry.NewHistogram(`spinlock_wait_ns{rank="3"}`),
	telemetry.NewHistogram(`spinlock_wait_ns{rank="4"}`),
}

// SlowAcquireThreshold is the contention wait above which a lock
// acquisition emits a span (when a tracer is attached): long waits are
// the ones worth seeing on the timeline next to the execution phases.
const SlowAcquireThreshold = 50 * time.Microsecond

// waitHist returns the rank's wait histogram, clamping unknown ranks
// to the unranked bucket.
func waitHist(rank int) *telemetry.Histogram {
	if rank < 0 || rank >= len(lockWaitByRank) {
		rank = 0
	}
	return lockWaitByRank[rank]
}

// Hooks are callbacks invoked while the lock is held: Acquired runs
// immediately after the lock is taken, Releasing immediately before it
// is dropped. Nil hooks are skipped. The component argument is the
// lock's registered name.
type Hooks struct {
	Acquired  func(component string)
	Releasing func(component string)
}

// Lock is a hypervisor spinlock. The zero value is usable but
// uninstrumented; use New to name the component for the hooks.
type Lock struct {
	mu        sync.Mutex
	component string
	hooks     *Hooks

	// acquires/contended count lock traffic per component; nil on a
	// zero-value (unnamed) lock, which stays uninstrumented.
	acquires  *telemetry.Counter
	contended *telemetry.Counter

	// held tracks lock state for sanity checking; it is only written
	// under mu.
	//ghost:guards lock=self
	held bool

	// rank orders this lock in the global acquisition order checked by
	// the runtime rank validator (rank.go); 0 means unranked.
	rank int

	// tracer, when attached, receives a slow-acquisition span on lane
	// whenever a contended acquisition waits past SlowAcquireThreshold.
	// Set once at boot (SetTracer), like the hooks.
	tracer   *trace.Tracer
	lane     int
	waitSpan trace.Name

	// gate is the owning system's scheduling slot: acquire and release
	// are preemption points crossed through it, and a contended
	// acquisition parks the running vCPU there instead of blocking
	// while a scheduler occupies it. Set once at boot (SetGate).
	gate *preempt.Gate
}

// New returns a named lock with the given hooks (which may be nil).
func New(component string, hooks *Hooks) *Lock {
	return &Lock{
		component: component,
		hooks:     hooks,
		acquires:  telemetry.NewCounter(`spinlock_acquisitions_total{lock="` + component + `"}`),
		contended: telemetry.NewCounter(`spinlock_contended_total{lock="` + component + `"}`),
		waitSpan:  trace.NewName("lock.wait:" + component),
	}
}

// NewRanked returns a named lock that participates in rank-order
// validation: while EnableRankCheck is active, acquiring it with any
// lock of equal or higher rank already held panics.
func NewRanked(component string, rank int, hooks *Hooks) *Lock {
	l := New(component, hooks)
	l.rank = rank
	return l
}

// name returns the component name, or a placeholder for zero-value
// locks, for panic messages.
func (l *Lock) name() string {
	if l.component == "" {
		return "(unnamed)"
	}
	return l.component
}

// SetTracer attaches a span tracer for slow-acquisition emission. The
// lane is the owning system's lane; contention spans are emitted
// parentless (the waiter's goroutine owns no lane stack position).
// Install once at boot, before any hypercall traffic.
func (l *Lock) SetTracer(t *trace.Tracer, lane int) {
	l.tracer, l.lane = t, lane
}

// SetGate attaches the owning system's scheduling slot. Like the
// tracer, install once at boot; a lock with no gate never preempts.
func (l *Lock) SetGate(g *preempt.Gate) { l.gate = g }

// Component returns the lock's registered name.
func (l *Lock) Component() string { return l.component }

// Lock acquires the lock and runs the Acquired hook while holding it.
// Before acquiring it crosses the acquire preemption point (resolved
// to the caller's table entry) through the lock's gate, so a scheduler
// running the owning system can park the vCPU on the threshold of the
// critical section. Under that scheduler a contended acquisition parks
// the vCPU until the holder releases; otherwise it blocks.
func (l *Lock) Lock() {
	if rankCheckOn.Load() {
		// Validate before blocking on mu: a rank inversion must panic
		// at the guilty acquisition, not deadlock against the thread
		// holding the locks in the other order.
		noteAcquire(l)
	}
	l.gate.FireCaller(preempt.KindLockAcquire)
	if l.acquires == nil || telemetry.Disabled() {
		if !l.mu.TryLock() {
			l.lockContended()
		}
	} else {
		l.acquires.Inc()
		if !l.mu.TryLock() {
			l.contended.Inc()
			start := time.Now()
			l.lockContended()
			wait := time.Since(start)
			waitHist(l.rank).ObserveDuration(wait)
			if wait >= SlowAcquireThreshold {
				l.tracer.Emit(l.lane, l.waitSpan, start, wait)
			}
		}
	}
	l.held = true
	if l.hooks != nil && l.hooks.Acquired != nil {
		l.hooks.Acquired(l.component)
	}
}

// Unlock runs the Releasing hook and drops the lock. Unlocking a lock
// that is not held (double unlock) panics with the component name.
// The release preemption point is crossed while the lock is still held
// and before the Releasing hook: a scheduler parking the vCPU there
// holds the whole system in the release window — other vCPUs observe
// the component locked with its mutation complete but the oracle's
// release-time checks not yet run — which is exactly the interleaving
// the lock-window litmuses probe. After the drop, the gate's scheduler
// learns of the release so vCPUs blocked on the lock become grantable.
func (l *Lock) Unlock() {
	if !l.held {
		panic("spinlock: unlock of unheld lock " + l.name())
	}
	if rankCheckOn.Load() {
		noteRelease(l)
	}
	l.gate.FireCaller(preempt.KindLockRelease)
	if l.hooks != nil && l.hooks.Releasing != nil {
		l.hooks.Releasing(l.component)
	}
	l.held = false
	l.mu.Unlock()
	l.gate.LockReleased(l)
}

// lockContended acquires a lock whose TryLock just failed: the running
// vCPU of a scheduled system parks until the holder releases and
// retries; everyone else blocks on the mutex.
func (l *Lock) lockContended() {
	for l.gate.LockContended(l) {
		if l.mu.TryLock() {
			return
		}
	}
	l.mu.Lock()
}

// Held reports whether the lock is currently held. It is advisory
// (racy by nature) and intended for assertions on the owning thread.
func (l *Lock) Held() bool { return l.held }
