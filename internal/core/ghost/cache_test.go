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

// interpretChecked runs one cached interpretation, fails unless it
// equals the independent InterpretPgtable reading of the same table,
// and returns the outcome, the number of table pages the cache walked
// for it, and the mapping.
func interpretChecked(t *testing.T, c *PgtableCache, tbl *pgtable.Table, when string) (CacheOutcome, uint64, Mapping) {
	t.Helper()
	before := c.Stats().PagesWalked
	got, outcome := c.Interpret(tbl.Mem, tbl.Root())
	pages := c.Stats().PagesWalked - before
	ref := InterpretPgtable(tbl.Mem, tbl.Root())
	if !EqualMappings(got.Mapping, ref.Mapping) {
		t.Fatalf("%s: cached mapping diverges from full recompute:\n%s",
			when, diffPages(DiffMappings(ref.Mapping, got.Mapping)))
	}
	if !got.Footprint.Equal(ref.Footprint) {
		t.Fatalf("%s: cached footprint %v, full %v", when, got.Footprint, ref.Footprint)
	}
	return outcome, pages, got.Mapping
}

// wantPath fails unless an interpretation took the expected path:
// the given outcome, and either no table page walked (patch) or some.
func wantPath(t *testing.T, when string, outcome CacheOutcome, pages uint64, want CacheOutcome, walked bool) {
	t.Helper()
	if outcome != want || (pages > 0) != walked {
		t.Fatalf("%s: outcome %v with %d pages walked; want outcome %v, pages walked: %v",
			when, outcome, pages, want, walked)
	}
}

// TestCacheOutcomes: a cold cache walks fully, an unchanged table
// hits, a leaf-level write updates partially — and each outcome's
// abstraction matches the full recompute. The partial update must
// also interpret strictly fewer table pages than the cold full walk:
// the work the cache exists to save, counted rather than timed.
func TestCacheOutcomes(t *testing.T) {
	tbl := buildRandomTable(t, 7)
	var c PgtableCache

	if _, outcome := c.Interpret(tbl.Mem, tbl.Root()); outcome != CacheFull {
		t.Fatalf("cold interpret: outcome %v, want full", outcome)
	}
	fullPages := c.Stats().PagesWalked
	interpretChecked(t, &c, tbl, "after cold walk")

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
	interpretChecked(t, &c, tbl, "after leaf rewrite")

	// interpretChecked's own Interpret calls land as extra hits.
	st := c.Stats()
	if st.Hits < 2 || st.FullWalks != 1 || st.PartialWalks != 1 {
		t.Errorf("stats %+v: want >=2 hits, 1 full walk, 1 partial", st)
	}
}

// TestCachePatchesLeafChanges: rewriting, annotating and unmapping
// single level-3 entries under a table that stays populated changes no
// table descriptor, so each is patched into the cached mapping entry
// by entry and walks no table page at all.
func TestCachePatchesLeafChanges(t *testing.T) {
	m := arch.NewMemory(arch.DefaultLayout())
	pool := mem.NewPool("tables", arch.PFN(0x90000), 64)
	tbl, err := pgtable.New("leaf", m, arch.Stage2, pgtable.PoolAllocator{Pool: pool}, 2)
	if err != nil {
		t.Fatal(err)
	}
	attrs := arch.Attrs{Perms: arch.PermRWX, Mem: arch.MemNormal, State: arch.StateOwned}
	const base = 0x4000_0000
	if err := tbl.Map(base, 16*arch.PageSize, base, attrs, true); err != nil {
		t.Fatal(err)
	}
	var c PgtableCache
	if outcome, _, _ := interpretChecked(t, &c, tbl, "cold"); outcome != CacheFull {
		t.Fatalf("cold: outcome %v, want full", outcome)
	}

	shared := arch.Attrs{Perms: arch.PermR, Mem: arch.MemNormal, State: arch.StateSharedOwned}
	steps := []struct {
		name string
		do   func() error
	}{
		{"rewrite one page's attributes", func() error {
			return tbl.Map(base+3*arch.PageSize, arch.PageSize, base+3*arch.PageSize, shared, true)
		}},
		{"restore it, re-coalescing", func() error {
			return tbl.Map(base+3*arch.PageSize, arch.PageSize, base+3*arch.PageSize, attrs, true)
		}},
		{"annotate two pages", func() error { return tbl.Annotate(base+7*arch.PageSize, 2*arch.PageSize, 2) }},
		{"unmap one page", func() error { return tbl.Unmap(base+12*arch.PageSize, arch.PageSize) }},
		{"map a fresh page beside the run", func() error {
			return tbl.Map(base+20*arch.PageSize, arch.PageSize, 0x7770000, shared, true)
		}},
	}
	for _, st := range steps {
		if err := st.do(); err != nil {
			t.Fatalf("%s: %v", st.name, err)
		}
		outcome, pages, _ := interpretChecked(t, &c, tbl, st.name)
		wantPath(t, st.name, outcome, pages, CachePartial, false)
	}
}

// TestCacheRewalksStructuralChange: a table descriptor that appears
// (a new level-3 table, a block split into one) or disappears (an
// emptied table freed) changes the tree's shape, so the cache re-walks
// the changed table's subtree — fewer pages than a full walk, more
// than none.
func TestCacheRewalksStructuralChange(t *testing.T) {
	tbl := buildRandomTable(t, 7)
	var c PgtableCache
	interpretChecked(t, &c, tbl, "cold")
	fullPages := c.Stats().PagesWalked

	attrs := arch.Attrs{Perms: arch.PermRW, Mem: arch.MemNormal, State: arch.StateOwned}
	// 16MB above the random table's 8MB window: same level-2 table,
	// an entry no mapping has touched.
	const fresh = 0x4100_0000
	steps := []struct {
		name   string
		do     func() error
		walked bool
	}{
		{"new level-3 table", func() error { return tbl.Map(fresh, arch.PageSize, 0x5550000, attrs, true) }, true},
		{"emptied level-3 table freed", func() error { return tbl.Unmap(fresh, arch.PageSize) }, true},
		// Invalid to block at level 2 is a leaf change: patched.
		{"2MB block mapped", func() error { return tbl.Map(fresh, 2<<20, fresh, attrs, true) }, false},
		{"block split into a table", func() error {
			return tbl.Map(fresh+arch.PageSize, arch.PageSize, 0x5550000, attrs, true)
		}, true},
	}
	for _, st := range steps {
		if err := st.do(); err != nil {
			t.Fatalf("%s: %v", st.name, err)
		}
		outcome, pages, _ := interpretChecked(t, &c, tbl, st.name)
		wantPath(t, st.name, outcome, pages, CachePartial, st.walked)
		if pages >= fullPages {
			t.Errorf("%s: re-walked %d table pages, cold full walk %d: want strictly fewer",
				st.name, pages, fullPages)
		}
	}
}

// TestCacheRootWriteRebuilds: a write to the root page — here a new
// level-1 table for a second 512GB region — rebuilds in full.
func TestCacheRootWriteRebuilds(t *testing.T) {
	tbl := buildRandomTable(t, 5)
	var c PgtableCache
	interpretChecked(t, &c, tbl, "cold")

	attrs := arch.Attrs{Perms: arch.PermRW, Mem: arch.MemNormal, State: arch.StateOwned}
	if err := tbl.Map(1<<39, arch.PageSize, 0x6660000, attrs, true); err != nil {
		t.Fatal(err)
	}
	outcome, pages, _ := interpretChecked(t, &c, tbl, "root write")
	wantPath(t, "root write", outcome, pages, CacheFull, true)
	if st := c.Stats(); st.FullWalks != 2 || st.PartialWalks != 0 {
		t.Errorf("stats %+v: want 2 full walks, no partial", st)
	}
}

// TestCacheRestoreRevertsLeaf: a memory restore rewrites whole frames
// and bumps their generations forward. Reverting a leaf change must
// patch the cached mapping back to exactly its pre-change value with
// no walk; reverting a new table re-walks its parent's subtree.
func TestCacheRestoreRevertsLeaf(t *testing.T) {
	tbl := buildRandomTable(t, 11)
	img := tbl.Mem.CaptureImage()
	bl, ok := img.NewBaseline(tbl.Mem)
	if !ok {
		t.Fatal("baseline does not match the image it was captured from")
	}
	var c PgtableCache
	_, _, orig := interpretChecked(t, &c, tbl, "cold")
	orig = orig.Clone()

	attrs := arch.Attrs{Perms: arch.PermR, Mem: arch.MemNormal, State: arch.StateSharedOwned}
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
	if err := tbl.Map(leafIA, arch.PageSize, 0x7770000, attrs, true); err != nil {
		t.Fatal(err)
	}
	outcome, pages, changed := interpretChecked(t, &c, tbl, "leaf rewrite")
	wantPath(t, "leaf rewrite", outcome, pages, CachePartial, false)
	if EqualMappings(changed, orig) {
		t.Fatal("leaf rewrite did not change the mapping")
	}

	if n := bl.Restore(); n == 0 {
		t.Fatal("restore rewrote no frame")
	}
	outcome, pages, back := interpretChecked(t, &c, tbl, "restore after leaf rewrite")
	wantPath(t, "restore after leaf rewrite", outcome, pages, CachePartial, false)
	if !EqualMappings(back, orig) {
		t.Fatalf("restore did not patch the mapping back:\n%s", diffPages(DiffMappings(orig, back)))
	}

	if err := tbl.Map(0x4100_0000, arch.PageSize, 0x7770000, attrs, true); err != nil {
		t.Fatal(err)
	}
	interpretChecked(t, &c, tbl, "new table")
	bl.Restore()
	outcome, pages, back = interpretChecked(t, &c, tbl, "restore after new table")
	wantPath(t, "restore after new table", outcome, pages, CachePartial, true)
	if !EqualMappings(back, orig) {
		t.Fatalf("restore did not re-walk the mapping back:\n%s", diffPages(DiffMappings(orig, back)))
	}
}

// TestCacheFrameReusedElsewhere: between two interpretations a level-2
// and a level-3 table are emptied and freed, and the (LIFO) pool hands
// the same two frames back as the tables of another 1GB region. The
// cached records still name the old region, and the frames' new
// contents diff as a structural change (the level-2 page) and a leaf
// change (the level-3 page). Both must be ignored in favour of the
// re-walk of their live ancestor, whose table descriptors moved.
func TestCacheFrameReusedElsewhere(t *testing.T) {
	m := arch.NewMemory(arch.DefaultLayout())
	pool := mem.NewPool("tables", arch.PFN(0x90000), 16)
	tbl, err := pgtable.New("reuse", m, arch.Stage2, pgtable.PoolAllocator{Pool: pool}, 2)
	if err != nil {
		t.Fatal(err)
	}
	attrs := arch.Attrs{Perms: arch.PermRW, Mem: arch.MemNormal, State: arch.StateOwned}
	// The page at 2GB keeps the level-1 table alive, so the root page
	// is never written.
	const regionA, regionB, keep = 1 << 30, 3 << 30, 2 << 30
	for _, ia := range []uint64{keep, regionA + 5*arch.PageSize} {
		if err := tbl.Map(ia, arch.PageSize, 0x5550000, attrs, true); err != nil {
			t.Fatal(err)
		}
	}
	var c PgtableCache
	interpretChecked(t, &c, tbl, "cold")
	if err := tbl.Unmap(regionA+5*arch.PageSize, arch.PageSize); err != nil {
		t.Fatal(err)
	}
	// A different level-2 slot than the freed table used, so the
	// reused level-2 frame's own entries change shape too.
	if err := tbl.Map(regionB+3*(2<<20)+9*arch.PageSize, arch.PageSize, 0x6660000, attrs, true); err != nil {
		t.Fatal(err)
	}
	outcome, pages, _ := interpretChecked(t, &c, tbl, "frames reused in another region")
	wantPath(t, "frames reused in another region", outcome, pages, CachePartial, true)
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
		interpretChecked(t, &c, tbl, fmt.Sprintf("step %d", step))
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
