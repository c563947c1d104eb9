// Package preempt is the runtime half of ghostlint's preemption-point
// extraction: a checked-in table (points_gen.go, regenerated with
// `go run ./cmd/ghostlint -write-preempt` and drift-gated in CI) of
// every lock acquire/release and TLBI emission in the module, plus the
// per-system scheduling slot (Gate) the instrumented primitives report
// their crossings through.
//
// This is the hook list ROADMAP item 1's deterministic multi-CPU
// scheduler consumes: a schedule is a sequence of point IDs at which
// control transfers between virtual CPUs, and because IDs are
// content-addressed (hash of kind and source position) a recorded
// schedule replays bit-identically as long as the source is unchanged
// — and fails loudly, rather than silently diverging, when it is not.
//
// The package is deliberately minimal: Points/ByID/ByKind/Known for
// enumeration, Gate for instrumentation. A crossing on a gate no
// scheduler occupies is one atomic load, so call sites can be
// instrumented unconditionally.
package preempt

import "sync"

// Kind classifies a preemption point. The values mirror the analysis
// package's Kind* strings (the generator writes these constants).
type Kind string

const (
	// KindLockAcquire is a spinlock acquisition — a Lock/TryLock call
	// or a lock*-helper call on the hypervisor.
	KindLockAcquire Kind = "lock-acquire"
	// KindLockRelease is the matching release.
	KindLockRelease Kind = "lock-release"
	// KindTLBI is a TLB-invalidation emission — one edge of a
	// break-before-make window.
	KindTLBI Kind = "tlbi"
)

// Point is one statically-extracted preemption point.
type Point struct {
	// ID is stable across builds of identical source: the FNV-1a hash
	// of "kind|file|line|col".
	ID uint64
	// Kind classifies the event at this point.
	Kind Kind
	// Component is the ranked lock component for lock points, ""
	// otherwise.
	Component string
	// Func is the enclosing function.
	Func string
	// File is module-root-relative; Line/Col locate the call.
	File string
	Line int
	Col  int
}

// Points returns the full table, sorted by (file, line, col). The
// slice is shared — callers must not modify it.
func Points() []Point { return generatedPoints }

var (
	indexOnce sync.Once
	byID      map[uint64]*Point
	byKind    map[Kind][]Point
)

func buildIndex() {
	byID = make(map[uint64]*Point, len(generatedPoints))
	byKind = make(map[Kind][]Point)
	for i := range generatedPoints {
		p := &generatedPoints[i]
		byID[p.ID] = p
		byKind[p.Kind] = append(byKind[p.Kind], *p)
	}
}

// ByID looks up a point by its stable ID.
func ByID(id uint64) (Point, bool) {
	indexOnce.Do(buildIndex)
	p, ok := byID[id]
	if !ok {
		return Point{}, false
	}
	return *p, true
}

// ByKind returns the points of one kind, in table order. The slice is
// shared — callers must not modify it.
func ByKind(k Kind) []Point {
	indexOnce.Do(buildIndex)
	return byKind[k]
}
