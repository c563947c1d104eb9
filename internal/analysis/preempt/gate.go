package preempt

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
)

// Reserved pseudo-point IDs. The deterministic scheduler records
// decisions at places that are not source positions — the boundary
// between two trace ops, and the re-grant after a vCPU blocked on a
// contended spinlock. They get fixed small IDs far below any FNV-1a
// hash; init-time indexing panics if a generated point ever collides.
const (
	// PointBoundary marks an op-boundary decision: the vCPU finished
	// one trace op and parks before starting the next (also the
	// stream-start park before its first op).
	PointBoundary uint64 = 1
	// PointLockWait marks a vCPU resuming after it blocked on a
	// spinlock another vCPU held.
	PointLockWait uint64 = 2
)

// Known reports whether id is a table point or a reserved
// pseudo-point — the validity check for replayed schedules.
func Known(id uint64) bool {
	if id == PointBoundary || id == PointLockWait {
		return true
	}
	_, ok := ByID(id)
	return ok
}

// frameKey locates a table point from a runtime call frame: frames
// carry absolute file paths and no column, so the index is keyed by
// base name + line + kind and each candidate is verified against the
// frame's full path suffix.
type frameKey struct {
	base string
	line int
	kind Kind
}

var (
	frameOnce  sync.Once
	frameIndex map[frameKey]*Point
)

func buildFrameIndex() {
	frameIndex = make(map[frameKey]*Point, len(generatedPoints))
	for i := range generatedPoints {
		p := &generatedPoints[i]
		if p.ID == PointBoundary || p.ID == PointLockWait {
			panic(fmt.Sprintf("preempt: generated point %s:%d collides with reserved pseudo-point ID %d",
				p.File, p.Line, p.ID))
		}
		k := frameKey{base: pathBase(p.File), line: p.Line, kind: p.Kind}
		// Two same-kind points on one line (rare — a multi-call line)
		// resolve to the leftmost deterministically.
		if prev, ok := frameIndex[k]; !ok || p.Col < prev.Col {
			frameIndex[k] = p
		}
	}
}

// Scheduler is what occupies a Gate while it schedules the gate's
// system: the cooperative one-token scheduler of internal/sched. Every
// call arrives on the goroutine crossing the point, which under
// one-token scheduling is the vCPU holding the token — so the
// scheduler needs no goroutine identity to know who crossed.
type Scheduler interface {
	// Preempt is called at a table-point crossing. It may park the
	// running vCPU and returns once the schedule grants it again.
	Preempt(p Point)
	// LockContended is called when an acquisition of l failed its
	// TryLock. True means the running vCPU was parked until l's
	// release and re-granted — retry TryLock. False means no vCPU is
	// under scheduling control: block on the lock.
	LockContended(l Lock) bool
	// LockReleased is called after every release of l, so vCPUs
	// blocked on it become grantable again.
	LockReleased(l Lock)
}

// Lock is a spinlock as a Scheduler sees it: an identity to wait on,
// named for diagnostics.
type Lock interface {
	Component() string
}

// Gate is one system's scheduling slot. The hypervisor creates it at
// boot and hands it to its spinlocks and its TLB; a scheduler occupies
// it only while it runs that system (Attach/Detach). An empty gate —
// and a nil *Gate, which unattached primitives carry — passes every
// crossing straight through at the cost of one atomic load.
type Gate struct {
	s atomic.Pointer[Scheduler]
}

// Attach makes s the gate's scheduler. It panics if another scheduler
// already occupies the gate: two schedulers on one system would each
// believe they hold its only run token.
func (g *Gate) Attach(s Scheduler) {
	if !g.s.CompareAndSwap(nil, &s) {
		panic("preempt: gate already has a scheduler attached")
	}
}

// Detach empties the gate; crossings pass straight through again.
func (g *Gate) Detach() { g.s.Store(nil) }

func (g *Gate) scheduler() Scheduler {
	if g == nil {
		return nil
	}
	if p := g.s.Load(); p != nil {
		return *p
	}
	return nil
}

// FireCaller reports a crossing of the table point of the given kind
// found on the calling stack. The instrumentation primitives (spinlock
// Lock/Unlock, the arch TLB invalidations) call it instead of naming
// an ID inline: the event's table identity is the *call site* —
// possibly several frames up, through the hypervisor's lock helpers —
// and resolving it from the stack keeps the primitives' own source
// files out of the table's content addressing.
//
// Of all matching frames the outermost wins: for `hv.lockHost(cpu)`
// both the helper's internal `Lock()` line and the hypercall's call
// line are table points, and the caller-specific one names the window
// a schedule actually distinguishes. Frames are only resolved while a
// scheduler occupies the gate.
func (g *Gate) FireCaller(kind Kind) {
	s := g.scheduler()
	if s == nil {
		return
	}
	frameOnce.Do(buildFrameIndex)
	var pcs [32]uintptr
	n := runtime.Callers(2, pcs[:])
	frames := runtime.CallersFrames(pcs[:n])
	var match *Point
	for {
		f, more := frames.Next()
		if f.Line > 0 {
			if p, ok := frameIndex[frameKey{base: pathBase(f.File), line: f.Line, kind: kind}]; ok &&
				strings.HasSuffix(f.File, "/"+p.File) {
				match = p // keep the latest: outermost matching frame
			}
		}
		if !more {
			break
		}
	}
	if match != nil {
		s.Preempt(*match)
	}
}

// LockContended forwards a failed TryLock of l to the occupying
// scheduler; false (block on the lock) when the gate is empty.
func (g *Gate) LockContended(l Lock) bool {
	s := g.scheduler()
	return s != nil && s.LockContended(l)
}

// LockReleased forwards a release of l to the occupying scheduler.
func (g *Gate) LockReleased(l Lock) {
	if s := g.scheduler(); s != nil {
		s.LockReleased(l)
	}
}

func pathBase(p string) string {
	if i := strings.LastIndexByte(p, '/'); i >= 0 {
		return p[i+1:]
	}
	return p
}
