package ghost

import (
	"cmp"
	"slices"
	"sync"
	"sync/atomic"

	"ghostspec/internal/arch"
	"ghostspec/internal/hyp"
	"ghostspec/internal/telemetry"
)

// This file is the incremental abstraction cache. recordComponent used
// to re-interpret each component's full 4-level table on every lock
// acquire and release — the dominant term of the ghost overhead the
// paper measures in §6. But a table's meaning only changes where
// descriptors are written, so the cache keeps the interpreted
// Mapping/Footprint together with, for every table page of the tree,
// its write generation from arch.Memory and a copy of its 512
// descriptors as last read.
//
// On each hook, a table page whose generation moved is re-read and
// diffed against that copy, entry by entry. A changed entry that is
// and was a leaf (block, page, annotation or invalid) changes exactly
// its own input range, so it is applied to the cached mapping as one
// in-place Set or Remove, and the footprint stays as it is. Only a
// table descriptor that appears, disappears or moves changes the
// tree's shape; that table page's subtree is then re-walked and
// spliced in. A write to the root page, or a root change, falls back
// to a full walk.
//
// The measured shape makes the per-entry path the one that matters:
// in the default fuzz campaign a component's mapping is about 67
// maplets, nearly all under one level-3 table page, and a lock event
// changes one or two of its descriptors.
//
// The walker here is deliberately a separate implementation from
// InterpretPgtable: the Recorder's VerifyCache mode runs both side by
// side and alarms on divergence, which only means something if the two
// paths share no code beyond the descriptor decoding in package arch.

// CacheOutcome classifies one cached interpretation.
type CacheOutcome uint8

const (
	// CacheHit: no cached table page changed; the stored abstraction
	// was returned as is.
	CacheHit CacheOutcome = iota
	// CachePartial: some table pages changed; their changed leaf
	// entries were patched into the stored abstraction, and only the
	// subtrees of pages whose table descriptors changed were
	// re-interpreted and spliced in.
	CachePartial
	// CacheFull: first use, a different root, or a write to the root
	// page itself — the whole tree was re-interpreted.
	CacheFull
)

// cachedTable is the cache's record of one table page: where its
// generation counter lives, the generation observed before the last
// read of its entries, those entries as read, and the position (level,
// covered input-address base) it occupied in the tree.
//
// Observing the generation before reading the entries pairs with
// Memory bumping it after each store: a racing writer can at worst
// make fresh data look stale (forcing a needless re-read later),
// never stale data look fresh.
type cachedTable struct {
	gen    *atomic.Uint64
	seen   uint64
	level  int
	vaBase uint64
	frame  arch.Frame
}

// tableSpan returns the bytes of input-address space covered by one
// whole table page at the given level (the root, level 0, covers the
// full 48-bit space).
func tableSpan(level int) uint64 {
	return arch.LevelSize(level) * arch.PTEsPerTable
}

// CacheStats counts a cache's interpretation outcomes.
type CacheStats struct {
	Hits         uint64
	PartialWalks uint64
	FullWalks    uint64
	// PagesWalked is the number of table pages (re-)interpreted across
	// all full and partial walks — the work the cache actually did,
	// against which hits measure the work it avoided.
	PagesWalked uint64
}

// add accumulates o into s.
func (s *CacheStats) add(o CacheStats) {
	s.Hits += o.Hits
	s.PartialWalks += o.PartialWalks
	s.FullWalks += o.FullWalks
	s.PagesWalked += o.PagesWalked
}

// PgtableCache is the incremental interpretation cache for one page
// table. It has its own lock: hooks already run under the component's
// spinlock, but the oracle must stay sound against a buggy hypervisor
// whose locking is broken, so the cache never relies on the
// component's lock for its own consistency.
type PgtableCache struct {
	mu     sync.Mutex
	valid  bool
	root   arch.PhysAddr
	tables map[arch.PFN]*cachedTable
	abs    AbstractPgtable
	stats  CacheStats
	// spare holds the records of table pages dropped from the tree;
	// walks reuse them, so a re-walk does not allocate a fresh 4 KiB
	// entry copy for every page it visits.
	spare []*cachedTable
}

// Interpret returns the abstraction of the table rooted at root,
// re-interpreting only what changed since the previous call. The
// returned abstraction is a copy-on-write clone: the caller may hold
// it indefinitely, and later cache updates will not mutate it.
func (c *PgtableCache) Interpret(m *arch.Memory, root arch.PhysAddr) (AbstractPgtable, CacheOutcome) {
	c.mu.Lock()
	defer c.mu.Unlock()

	if !c.valid || c.root != root {
		return c.rebuild(m, root), CacheFull
	}

	rootPFN := arch.PhysToPFN(root)
	var dirty []dirtyTable
	for pfn, t := range c.tables {
		if t.gen.Load() != t.seen {
			if pfn == rootPFN {
				// The root's entries each select a whole 512GB subtree;
				// incremental patching buys nothing there.
				return c.rebuild(m, root), CacheFull
			}
			dirty = append(dirty, dirtyTable{pfn: pfn, level: t.level, vaBase: t.vaBase, t: t})
		}
	}
	if len(dirty) == 0 {
		c.stats.Hits++
		if !telemetry.Disabled() {
			ghostCacheHits.Inc()
		}
		return c.abs.Clone(), CacheHit
	}

	// Shallowest first. A dirty table inside the span of a table whose
	// structure changed is re-walked with it; it may be stale (freed,
	// reused, or moved), so its own entries are never trusted.
	// Structural changes (detach, free, frame reuse) always write a
	// still-live ancestor's table descriptor, so every stale entry is
	// covered by such a top — and a covering top is strictly
	// shallower, which the (level, vaBase) order guarantees we meet
	// first. Every other dirty table is live at its cached position,
	// and its changed leaf entries are patched in place.
	slices.SortFunc(dirty, func(a, b dirtyTable) int {
		if a.level != b.level {
			return a.level - b.level
		}
		return cmp.Compare(a.vaBase, b.vaBase)
	})
	var tops []dirtyTable
	for _, d := range dirty {
		if coveredBy(tops, d.t) {
			continue
		}
		seen := d.t.gen.Load()
		fresh := m.ReadFrame(d.pfn.Phys())
		if structureChanged(&d.t.frame, &fresh, d.level) {
			tops = append(tops, d)
			continue
		}
		c.patch(d.t, &fresh)
		d.t.seen = seen
	}

	// Drop every cached entry inside a span about to be re-walked —
	// stale entries for freed or reparented tables would otherwise
	// linger. All deletions happen before any re-walk, so entries the
	// walks re-add survive.
	for _, top := range tops {
		for pfn, t := range c.tables {
			if t.level >= top.level && top.spans(t.vaBase) {
				delete(c.tables, pfn)
				c.spare = append(c.spare, t)
			}
		}
	}

	pages := 0
	for _, top := range tops {
		var sub AbstractPgtable
		sub.Mapping.Grow(32)
		pages += c.walk(m, top.pfn.Phys(), top.level, top.vaBase, &sub)
		c.abs.Mapping.SpliceRange(top.vaBase, tableSpan(top.level)>>arch.PageShift,
			sub.Mapping.Maplets())
	}
	if len(tops) > 0 {
		c.abs.Footprint = footprintOf(c.tables)
	}

	c.stats.PartialWalks++
	c.stats.PagesWalked += uint64(pages)
	if !telemetry.Disabled() {
		ghostCachePartial.Inc()
		ghostCachePages.Add(uint64(pages))
	}
	return c.abs.Clone(), CachePartial
}

// dirtyTable is a cached table page whose generation moved, with the
// position it had in the tree. The position is copied out because a
// re-walk may recycle the record t points to.
type dirtyTable struct {
	pfn    arch.PFN
	level  int
	vaBase uint64
	t      *cachedTable
}

// spans reports whether va lies in the input range d's page covers.
func (d dirtyTable) spans(va uint64) bool {
	return va >= d.vaBase && va < d.vaBase+tableSpan(d.level)
}

// coveredBy reports whether t lies strictly below one of tops.
func coveredBy(tops []dirtyTable, t *cachedTable) bool {
	for _, top := range tops {
		if top.level < t.level && top.spans(t.vaBase) {
			return true
		}
	}
	return false
}

// structureChanged reports whether any entry that differs between the
// two reads of a table page at the given level is, or was, a table
// descriptor: the change then moves subtrees, not just leaf ranges.
func structureChanged(old, fresh *arch.Frame, level int) bool {
	for idx := range old {
		if old[idx] != fresh[idx] &&
			(old.PTE(idx).Kind(level) == arch.EKTable || fresh.PTE(idx).Kind(level) == arch.EKTable) {
			return true
		}
	}
	return false
}

// patch applies the leaf-entry changes between t's cached entries and
// fresh to the cached mapping, one Set or Remove per changed entry,
// then adopts fresh as t's cached entries. The caller has checked that
// no changed entry is or was a table descriptor. Caller holds c.mu.
func (c *PgtableCache) patch(t *cachedTable, fresh *arch.Frame) {
	nrPages := arch.LevelPages(t.level)
	shift := arch.LevelShift(t.level)
	for idx := range fresh {
		if t.frame[idx] == fresh[idx] {
			continue
		}
		va := t.vaBase | uint64(idx)<<shift
		pte := fresh.PTE(idx)
		switch pte.Kind(t.level) {
		case arch.EKBlock, arch.EKPage:
			c.abs.Mapping.Set(va, nrPages, Mapped(pte.OutputAddr(t.level), pte.Attrs()))
		case arch.EKAnnotated:
			c.abs.Mapping.Set(va, nrPages, Annotated(pte.OwnerID()))
		case arch.EKReserved:
			c.abs.Mapping.Set(va, nrPages, Annotated(0xFF))
		default: // arch.EKInvalid
			c.abs.Mapping.Remove(va, nrPages)
		}
	}
	t.frame = *fresh
}

// rebuild discards the cache and interprets the whole tree. Caller
// holds c.mu.
func (c *PgtableCache) rebuild(m *arch.Memory, root arch.PhysAddr) AbstractPgtable {
	hint := c.abs.Mapping.NrMaplets()
	if c.tables == nil {
		c.tables = make(map[arch.PFN]*cachedTable)
	}
	for _, t := range c.tables {
		c.spare = append(c.spare, t)
	}
	clear(c.tables)
	c.abs = AbstractPgtable{}
	c.abs.Mapping.Grow(hint)
	n := c.walk(m, root, arch.StartLevel, 0, &c.abs)
	c.abs.Footprint = footprintOf(c.tables)
	c.root = root
	c.valid = true
	c.stats.FullWalks++
	c.stats.PagesWalked += uint64(n)
	if !telemetry.Disabled() {
		ghostCacheMisses.Inc()
		ghostCachePages.Add(uint64(n))
	}
	return c.abs.Clone()
}

// Invalidate empties the cache; the next Interpret is a full walk.
// Used when a guest's table is destroyed at teardown.
func (c *PgtableCache) Invalidate() {
	c.mu.Lock()
	c.valid = false
	c.tables = nil
	c.spare = nil
	c.abs = AbstractPgtable{}
	c.mu.Unlock()
}

// Stats returns the cache's counters.
func (c *PgtableCache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// hostCache wraps a PgtableCache with the ghost_host projection: on a
// hit the derived Annot/Shared components and the legality verdict are
// returned from store, so the hit path skips the maplet scan too.
type hostCache struct {
	pgt PgtableCache

	mu        sync.Mutex
	valid     bool
	host      Host
	violation error
}

func (hc *hostCache) abstract(hv *hyp.Hypervisor) (Host, PageSet, error) {
	full, outcome := hc.pgt.Interpret(hv.Mem, hv.HostPGTRoot())
	hc.mu.Lock()
	defer hc.mu.Unlock()
	if outcome != CacheHit || !hc.valid {
		hc.host, hc.violation = deriveHost(hv, &full)
		hc.valid = true
	}
	// The stored violation is returned on hits too: the uncached path
	// re-found an illegal mapping on every hook, and alarm cadence must
	// not depend on whether the cache hit.
	return Host{Present: true, Annot: hc.host.Annot.Clone(), Shared: hc.host.Shared.Clone()},
		full.Footprint, hc.violation
}

// walk interprets the subtree rooted at the table page at table
// (occupying the given level and input-address base), extending out
// and recording each visited table page's generation — observed
// before its entries are read — and the entries themselves into
// c.tables. Returns the number of table pages visited. Caller holds
// c.mu.
func (c *PgtableCache) walk(m *arch.Memory, table arch.PhysAddr, level int, vaPartial uint64, out *AbstractPgtable) int {
	var t *cachedTable
	if k := len(c.spare); k > 0 {
		t, c.spare = c.spare[k-1], c.spare[:k-1]
	} else {
		t = new(cachedTable)
	}
	gen := m.FrameGenRef(table)
	t.gen, t.seen, t.level, t.vaBase = gen, gen.Load(), level, vaPartial
	c.tables[arch.PhysToPFN(table)] = t
	n := 1
	nrPages := arch.LevelPages(level)
	shift := arch.LevelShift(level)
	// One bulk frame copy instead of 512 per-slot lookups; the walk
	// below reads it, and it stays as the baseline the next re-read
	// of this page diffs against.
	t.frame = m.ReadFrame(table)
	for idx := range t.frame {
		vaNew := vaPartial | uint64(idx)<<shift
		pte := t.frame.PTE(idx)
		switch pte.Kind(level) {
		case arch.EKTable:
			n += c.walk(m, pte.TableAddr(), level+1, vaNew, out)
		case arch.EKBlock, arch.EKPage:
			out.Mapping.Extend(vaNew, nrPages, Mapped(pte.OutputAddr(level), pte.Attrs()))
		case arch.EKAnnotated:
			out.Mapping.Extend(vaNew, nrPages, Annotated(pte.OwnerID()))
		case arch.EKInvalid:
			// Unmapped, unowned: not part of the extension.
		case arch.EKReserved:
			out.Mapping.Extend(vaNew, nrPages, Annotated(0xFF))
		}
	}
	return n
}

// footprintOf rebuilds the footprint set from the cached table pages.
func footprintOf(tabs map[arch.PFN]*cachedTable) PageSet {
	pfns := make([]arch.PFN, 0, len(tabs))
	for pfn := range tabs {
		pfns = append(pfns, pfn)
	}
	slices.Sort(pfns)
	var s PageSet
	for _, pfn := range pfns {
		s.Add(pfn)
	}
	return s
}
