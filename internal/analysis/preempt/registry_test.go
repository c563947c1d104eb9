package preempt

import (
	"sort"
	"testing"
)

func TestGeneratedTable(t *testing.T) {
	pts := Points()
	if len(pts) == 0 {
		t.Fatal("generated table is empty")
	}
	if !sort.SliceIsSorted(pts, func(i, j int) bool {
		a, b := pts[i], pts[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		return a.Kind < b.Kind
	}) {
		t.Error("table not sorted by (file, line, col, kind)")
	}
	seen := map[uint64]bool{}
	for _, p := range pts {
		if p.ID == 0 {
			t.Errorf("%s:%d has zero ID", p.File, p.Line)
		}
		if seen[p.ID] {
			t.Errorf("duplicate ID %#x", p.ID)
		}
		seen[p.ID] = true
		switch p.Kind {
		case KindLockAcquire, KindLockRelease, KindTLBI:
		default:
			t.Errorf("%s:%d has unknown kind %q", p.File, p.Line, p.Kind)
		}
	}
}

func TestByIDAndByKind(t *testing.T) {
	pts := Points()
	for _, p := range pts {
		got, ok := ByID(p.ID)
		if !ok || got != p {
			t.Fatalf("ByID(%#x) = %+v, %v; want %+v", p.ID, got, ok, p)
		}
	}
	if _, ok := ByID(0xdeadbeef); ok {
		t.Error("ByID found a point for an unknown ID")
	}
	total := 0
	for _, k := range []Kind{KindLockAcquire, KindLockRelease, KindTLBI} {
		byKind := ByKind(k)
		for _, p := range byKind {
			if p.Kind != k {
				t.Errorf("ByKind(%s) returned %+v", k, p)
			}
		}
		total += len(byKind)
	}
	if total != len(pts) {
		t.Errorf("ByKind partitions cover %d points, table has %d", total, len(pts))
	}
	// The table must contain all three kinds: a missing kind means the
	// extractor lost a whole class of interleaving sites.
	for _, k := range []Kind{KindLockAcquire, KindLockRelease, KindTLBI} {
		if len(ByKind(k)) == 0 {
			t.Errorf("no %s points in the table", k)
		}
	}
}

// fakeSched records what a Gate forwards to its scheduler.
type fakeSched struct {
	preempted []uint64
	contended []string
	released  []string
}

func (f *fakeSched) Preempt(p Point) { f.preempted = append(f.preempted, p.ID) }

func (f *fakeSched) LockContended(l Lock) bool {
	f.contended = append(f.contended, l.Component())
	return true
}

func (f *fakeSched) LockReleased(l Lock) { f.released = append(f.released, l.Component()) }

type namedLock string

func (n namedLock) Component() string { return string(n) }

func TestGatePassThrough(t *testing.T) {
	// Neither a nil gate nor an empty one consults anything.
	for _, g := range []*Gate{nil, {}} {
		g.FireCaller(KindLockAcquire)
		if g.LockContended(namedLock("l")) {
			t.Errorf("gate %v with no scheduler claimed a contended lock", g)
		}
		g.LockReleased(namedLock("l"))
	}
}

func TestGateForwardsToAttachedScheduler(t *testing.T) {
	var g Gate
	f := &fakeSched{}
	g.Attach(f)
	if !g.LockContended(namedLock("a")) {
		t.Error("LockContended not forwarded")
	}
	g.LockReleased(namedLock("a"))
	// No table point is on this test's stack: an off-table crossing
	// must not preempt.
	g.FireCaller(KindLockAcquire)
	if len(f.preempted) != 0 || len(f.contended) != 1 || len(f.released) != 1 {
		t.Errorf("forwarded preempt=%v contended=%v released=%v", f.preempted, f.contended, f.released)
	}

	func() {
		defer func() {
			if recover() == nil {
				t.Error("second Attach on an occupied gate did not panic")
			}
		}()
		g.Attach(&fakeSched{})
	}()

	g.Detach()
	if g.LockContended(namedLock("a")) || len(f.contended) != 1 {
		t.Error("detached gate still forwards")
	}
	g.Attach(&fakeSched{}) // an emptied gate takes a new scheduler
	g.Detach()
}
