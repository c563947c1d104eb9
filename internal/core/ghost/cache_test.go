package ghost

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"ghostspec/internal/arch"
	"ghostspec/internal/hyp"
	"ghostspec/internal/mem"
	"ghostspec/internal/pgtable"
)

// mustMatchFull fails unless the cached abstraction equals a fresh
// full interpretation of the same table.
func mustMatchFull(t *testing.T, c *PgtableCache, tbl *pgtable.Table, when string) {
	t.Helper()
	got, _ := c.Interpret(tbl.Mem, tbl.Root())
	ref := InterpretPgtable(tbl.Mem, tbl.Root())
	if !EqualMappings(got.Mapping, ref.Mapping) {
		t.Fatalf("%s: cached mapping diverges from full recompute:\n%s",
			when, diffPages(DiffMappings(ref.Mapping, got.Mapping)))
	}
	if !got.Footprint.Equal(ref.Footprint) {
		t.Fatalf("%s: cached footprint %v, full %v", when, got.Footprint, ref.Footprint)
	}
}

// TestCacheOutcomes: a cold cache walks fully, an unchanged table
// hits, a leaf-level write re-walks partially — and each outcome's
// abstraction matches the full recompute. The partial re-walk must
// also interpret strictly fewer table pages than the cold full walk:
// the work the cache exists to save, counted rather than timed.
func TestCacheOutcomes(t *testing.T) {
	tbl := buildRandomTable(t, 7)
	var c PgtableCache

	if _, outcome := c.Interpret(tbl.Mem, tbl.Root()); outcome != CacheFull {
		t.Fatalf("cold interpret: outcome %v, want full", outcome)
	}
	fullPages := c.Stats().PagesWalked
	mustMatchFull(t, &c, tbl, "after cold walk")

	if _, outcome := c.Interpret(tbl.Mem, tbl.Root()); outcome != CacheHit {
		t.Fatalf("unchanged interpret: outcome %v, want hit", outcome)
	}

	// Rewrite one existing leaf in place: only its level-3 table page
	// changes, so the re-walk must be partial.
	var leafIA uint64
	found := false
	_ = tbl.Walk(0, 1<<arch.IABits, &pgtable.Visitor{
		Flags: pgtable.VisitLeaf,
		Fn: func(ctx *pgtable.VisitCtx) error {
			if !found && ctx.Level == arch.LastLevel && ctx.PTE.Valid() {
				leafIA, found = ctx.IA, true
			}
			return nil
		},
	})
	if !found {
		t.Fatal("random table has no level-3 leaf")
	}
	attrs := arch.Attrs{Perms: arch.PermR, Mem: arch.MemNormal, State: arch.StateSharedOwned}
	if err := tbl.Map(leafIA, arch.PageSize, arch.PhysAddr(0x7770000), attrs, true); err != nil {
		t.Fatal(err)
	}
	before := c.Stats().PagesWalked
	if _, outcome := c.Interpret(tbl.Mem, tbl.Root()); outcome != CachePartial {
		t.Fatalf("after leaf rewrite: outcome %v, want partial", outcome)
	}
	if partialPages := c.Stats().PagesWalked - before; partialPages >= fullPages {
		t.Errorf("partial re-walk interpreted %d table pages, cold full walk %d: want strictly fewer",
			partialPages, fullPages)
	}
	mustMatchFull(t, &c, tbl, "after leaf rewrite")

	// mustMatchFull's own Interpret calls land as extra hits.
	st := c.Stats()
	if st.Hits < 2 || st.FullWalks != 1 || st.PartialWalks != 1 {
		t.Errorf("stats %+v: want >=2 hits, 1 full walk, 1 partial", st)
	}
}

// TestCacheRandomChurn: random map/unmap/annotate traffic, with the
// cached and full interpretations compared after every mutation. This
// exercises subtree growth, block splitting, table freeing, and frame
// reuse — all the structural changes the dirty-subtree logic must
// survive.
func TestCacheRandomChurn(t *testing.T) {
	m := arch.NewMemory(arch.DefaultLayout())
	pool := mem.NewPool("tables", arch.PFN(0x90000), 192)
	tbl, err := pgtable.New("churn", m, arch.Stage2, pgtable.PoolAllocator{Pool: pool}, 2)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(99))
	attrs := arch.Attrs{Perms: arch.PermRWX, Mem: arch.MemNormal, State: arch.StateOwned}

	var c PgtableCache
	for step := 0; step < 300; step++ {
		ia := uint64(rng.Intn(1<<20)) << arch.PageShift
		pages := uint64(rng.Intn(8) + 1)
		switch rng.Intn(3) {
		case 0:
			pa := arch.PhysAddr(rng.Intn(1<<20)) << arch.PageShift
			_ = tbl.Map(ia, pages<<arch.PageShift, pa, attrs, true)
		case 1:
			_ = tbl.Unmap(ia, pages<<arch.PageShift)
		case 2:
			_ = tbl.Annotate(ia, pages<<arch.PageShift, uint8(rng.Intn(3)+1))
		}
		mustMatchFull(t, &c, tbl, fmt.Sprintf("step %d", step))
	}
	st := c.Stats()
	if st.PartialWalks == 0 {
		t.Error("300 mutations produced no partial walks")
	}
}

// TestCacheRootChange: pointing the cache at a different root is a
// full walk of the new tree.
func TestCacheRootChange(t *testing.T) {
	a := buildRandomTable(t, 1)
	var c PgtableCache
	c.Interpret(a.Mem, a.Root())

	pool := mem.NewPool("tables2", arch.PFN(0xa0000), 64)
	b, err := pgtable.New("other", a.Mem, arch.Stage2, pgtable.PoolAllocator{Pool: pool}, 2)
	if err != nil {
		t.Fatal(err)
	}
	attrs := arch.Attrs{Perms: arch.PermRW, Mem: arch.MemNormal, State: arch.StateOwned}
	if err := b.Map(4<<arch.PageShift, arch.PageSize, 0x5000, attrs, false); err != nil {
		t.Fatal(err)
	}
	got, outcome := c.Interpret(a.Mem, b.Root())
	if outcome != CacheFull {
		t.Fatalf("root change: outcome %v, want full", outcome)
	}
	ref := InterpretPgtable(a.Mem, b.Root())
	if !EqualMappings(got.Mapping, ref.Mapping) {
		t.Error("root change: abstraction of the new tree is wrong")
	}
}

// TestCacheSnapshotImmutable: an abstraction handed out by the cache
// must not change when the table mutates and the cache re-walks —
// recorded pre/post states would otherwise rewrite themselves.
func TestCacheSnapshotImmutable(t *testing.T) {
	tbl := buildRandomTable(t, 13)
	var c PgtableCache
	snap, _ := c.Interpret(tbl.Mem, tbl.Root())
	saved := append([]Maplet(nil), snap.Mapping.Maplets()...)

	attrs := arch.Attrs{Perms: arch.PermRW, Mem: arch.MemNormal, State: arch.StateOwned}
	for i := uint64(0); i < 32; i++ {
		_ = tbl.Map((0x300+i)<<arch.PageShift, arch.PageSize, arch.PhysAddr(0x8880000+i*arch.PageSize), attrs, true)
		c.Interpret(tbl.Mem, tbl.Root())
	}

	after := snap.Mapping.Maplets()
	if len(after) != len(saved) {
		t.Fatalf("snapshot maplet count changed: %d -> %d", len(saved), len(after))
	}
	for i := range saved {
		if after[i] != saved[i] {
			t.Fatalf("snapshot maplet %d changed: %v -> %v", i, saved[i], after[i])
		}
	}
}

// TestSeparationReportsAllViolations: with three footprints violating
// two constraints at once, the separation alarm names every violated
// pair, not just the last one scanned (which an earlier version
// silently kept).
func TestSeparationReportsAllViolations(t *testing.T) {
	r := &Recorder{shared: NewState()}
	g := hyp.Globals{NrCPUs: 1, CarveStart: 1 << 30, CarveSize: 16 << 20}
	r.shared.Globals = Globals{Present: true, Globals: g}

	carve := arch.PhysToPFN(g.CarveStart)
	outside := carve + arch.PFN(g.CarveSize>>arch.PageShift) + 10

	r.shared.Pkvm = Pkvm{Present: true,
		PGT: AbstractPgtable{Footprint: NewPageSet(carve+1, outside)}}
	r.shared.Host = Host{Present: true}
	r.hostFootprint = NewPageSet(carve + 1)

	r.checkSeparation()
	fs := r.Failures()
	if len(fs) != 1 {
		t.Fatalf("%d separation alarms, want 1 combined", len(fs))
	}
	d := fs[0].Detail
	if !strings.Contains(d, "footprints of pkvm and host overlap") {
		t.Errorf("overlap violation missing from detail:\n%s", d)
	}
	if !strings.Contains(d, "outside the carve-out") {
		t.Errorf("carve-out violation missing from detail:\n%s", d)
	}
}

// TestBootAlarmLabel: boot-time alarms render "boot", not a fabricated
// cpu0 exception.
func TestBootAlarmLabel(t *testing.T) {
	f := Failure{Kind: FailInitLayout, Call: CallData{Boot: true}, Detail: "layout wrong"}
	if got := f.String(); !strings.Contains(got, "boot") || strings.Contains(got, "cpu0") {
		t.Errorf("boot alarm renders %q", got)
	}
}

// TestVerifyCacheCleanScenario: the recorder's differential self-check
// stays silent across the full lifecycle scenario — the cached and
// reference abstraction paths agree at every hook.
func TestVerifyCacheCleanScenario(t *testing.T) {
	s := newSys(t)
	s.rec.VerifyCache = true
	fullScenario(t, s)
	s.mustClean(t)
	st := s.rec.Stats()
	if st.Cache.Hits == 0 || st.Cache.PartialWalks == 0 {
		t.Errorf("scenario exercised no cache hits/partial walks: %+v", st.Cache)
	}
}
