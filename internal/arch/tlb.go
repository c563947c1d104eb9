package arch

import (
	"cmp"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"ghostspec/internal/analysis/preempt"
	"ghostspec/internal/telemetry"
	"ghostspec/internal/telemetry/trace"
)

// Span names for the TLB maintenance paths: fills (miss-path walks
// caching a translation) and invalidation sweeps. On a timeline they
// explain where translation time goes when the cache churns.
var (
	spanTLBFill       = trace.NewName("tlb.fill")
	spanTLBInvalidate = trace.NewName("tlb.invalidate")
)

// This file is the TLB model: the hardware translation caches whose
// maintenance pKVM is responsible for. Successful walks are cached
// keyed by (VMID, root, stage, IA page) and served without re-walking
// — deliberately including after the tables changed, because that is
// what hardware does: a translation stays live until a TLBI covering
// it is issued. Forgetting that TLBI (the break-before-make
// discipline) is the canonical hypervisor bug class, and caching walks
// the way hardware does is what lets the ghost oracle observe it
// (Recorder.FailStaleTLB) instead of the bug staying invisible in a
// walk-always model.
//
// The model is a plain map under one mutex. Walk holds the mutex
// across lookup, miss walk and fill, and every invalidation sweeps
// under it, so a TLBI either removes a fill or runs after it: no entry
// that predates a TLBI survives it, and stale entries exist if and
// only if a required TLBI was never issued. The mutex is a leaf: no
// preemption point fires while it is held (the invalidations fire
// theirs before taking it), so a parked vCPU never holds it.
//
// Each entry also records, for every table page its walk read, the
// page's write generation (arch.Memory's per-frame counter, bumped
// after every store). An unchanged generation proves the page still
// reads as the walk saw it; CheckCoherence and InvalidateStale use
// that to skip re-walking entries whose tables never moved.

// VMID tags a translation regime: which (virtual) machine's tables a
// cached walk came from. Mirrors the VMID field hardware tags stage 2
// TLB entries with; the hypervisor's own EL2 stage 1 regime gets a
// reserved sentinel value so its entries are tagged too.
type VMID uint16

const tlbMaxDeps = LastLevel - StartLevel + 1

// TLB traffic: hits and misses of hardware-path translations
// (TLB.Walk), and invalidation sweeps.
var (
	telTLBHits        = telemetry.NewCounter("tlb_hits_total")
	telTLBMisses      = telemetry.NewCounter("tlb_misses_total")
	telTLBInvalidates = telemetry.NewCounter("tlb_invalidations_total")
)

// tlbKey identifies a cached walk within one VMID's entries.
type tlbKey struct {
	root  PhysAddr
	stage Stage
	page  uint64 // ia >> PageShift
}

func (a tlbKey) compare(b tlbKey) int {
	return cmp.Or(cmp.Compare(a.root, b.root), cmp.Compare(a.stage, b.stage), cmp.Compare(a.page, b.page))
}

// tlbDep is one table page the cached walk read: the page's generation
// cell and the value it held before the read. While the generation is
// unchanged the page is byte-identical to what the walk saw.
type tlbDep struct {
	ref *atomic.Uint64
	gen uint64
}

// tlbEntry is one cached translation.
type tlbEntry struct {
	pte   PTE // the terminal valid leaf descriptor
	level int
	cpu   int // CPU whose walk filled the entry (diagnostics)
	deps  [tlbMaxDeps]tlbDep
	ndeps int
}

// depsFresh reports whether every table page the cached walk read is
// still unchanged — in which case a fresh walk provably returns the
// same descriptor.
func (e *tlbEntry) depsFresh() bool {
	for i := 0; i < e.ndeps; i++ {
		if e.deps[i].ref.Load() != e.deps[i].gen {
			return false
		}
	}
	return true
}

// TLB is the translation cache model. One instance serves all CPUs of
// a system: entries record their filling CPU, and every modelled
// invalidation is the broadcast (inner-shareable) form, which is the
// only kind this hypervisor issues — so a single coherence domain
// models per-CPU TLBs plus broadcast maintenance.
type TLB struct {
	mem *Memory

	mu      sync.Mutex
	entries map[VMID]map[tlbKey]tlbEntry // guarded by mu

	// tracer, when attached, receives fill and invalidation spans on
	// lane; see SetTracer.
	tracer *trace.Tracer
	lane   int
	// gate is the owning system's scheduling slot; every invalidation
	// is a TLBI preemption point crossed through it. See SetGate.
	gate *preempt.Gate
}

// NewTLB builds an empty TLB over the given memory.
func NewTLB(m *Memory) *TLB {
	return &TLB{mem: m, entries: make(map[VMID]map[tlbKey]tlbEntry)}
}

// SetTracer attaches a span tracer covering fills and invalidations.
// Install once at boot; a nil tracer stays untraced.
func (t *TLB) SetTracer(tr *trace.Tracer, lane int) {
	t.tracer, t.lane = tr, lane
}

// SetGate attaches the owning system's scheduling slot. Install once
// at boot; a nil gate never preempts.
func (t *TLB) SetGate(g *preempt.Gate) { t.gate = g }

// Walk is the hardware translation path: consult the cache, walk and
// fill on a miss. A hit is served without looking at the tables — the
// architectural behaviour that makes a skipped TLBI observable.
func (t *TLB) Walk(cpu int, root PhysAddr, stage Stage, vmid VMID, ia uint64, acc Access) (WalkResult, *Fault) {
	if !CanonicalIA(ia) {
		return WalkResult{}, &Fault{Kind: FaultAddressSize, Level: StartLevel, Addr: ia}
	}
	key := tlbKey{root: root, stage: stage, page: ia >> PageShift}
	t.mu.Lock()
	e, hit := t.entries[vmid][key]
	if !hit {
		e = t.walkLeafDeps(root, ia)
		e.cpu = cpu
		if k := e.pte.Kind(e.level); k == EKBlock || k == EKPage {
			// Valid translations are cacheable even when this particular
			// access kind permission-faults: the TLB caches the walk, the
			// permission check happens per access.
			sp := t.tracer.Begin(t.lane, spanTLBFill)
			m := t.entries[vmid]
			if m == nil {
				m = make(map[tlbKey]tlbEntry)
				t.entries[vmid] = m
			}
			m[key] = e
			sp.End()
		}
	}
	t.mu.Unlock()
	if !telemetry.Disabled() {
		if hit {
			telTLBHits.Inc()
		} else {
			telTLBMisses.Inc()
		}
	}
	return leafResult(e.pte, e.level, ia, acc)
}

// walkLeafDeps is WalkLeaf with dependency recording: each table
// page's generation is loaded before its descriptor so an unchanged
// generation later proves the read is still current.
func (t *TLB) walkLeafDeps(root PhysAddr, ia uint64) tlbEntry {
	var e tlbEntry
	table := root
	for level := StartLevel; level <= LastLevel; level++ {
		ref := t.mem.FrameGenRef(table)
		e.deps[e.ndeps] = tlbDep{ref: ref, gen: ref.Load()}
		e.ndeps++
		pte := t.mem.ReadPTE(table, IndexAt(ia, level))
		if pte.Kind(level) != EKTable {
			e.pte, e.level = pte, level
			return e
		}
		table = pte.TableAddr()
	}
	panic("arch: walk ran past the last level")
}

// InvalidateRange drops every cached translation tagged vmid whose
// leaf coverage intersects [ia, ia+size) — Arm's TLBI IPAS2E1IS /
// VAE2IS by-address forms. An entry cached from a block leaf matches
// any address the block covers, not just the page that filled it.
func (t *TLB) InvalidateRange(vmid VMID, ia, size uint64) {
	// Fired here (not at every emitting call site) so the table point
	// resolved is the caller's.
	t.gate.FireCaller(preempt.KindTLBI)
	end := ia + size
	t.invalidate(func() {
		m := t.entries[vmid]
		for k, e := range m {
			base := (k.page << PageShift) &^ (LevelSize(e.level) - 1)
			if base < end && ia < base+LevelSize(e.level) {
				delete(m, k)
			}
		}
	})
}

// InvalidateIPA drops the cached translations of one page — the
// page-granule TLBI.
func (t *TLB) InvalidateIPA(vmid VMID, ia uint64) {
	t.InvalidateRange(vmid, ia, PageSize)
}

// InvalidateVMID drops every cached translation tagged vmid — Arm's
// TLBI VMALLS12E1IS, issued when a VM's stage 2 is torn down.
func (t *TLB) InvalidateVMID(vmid VMID) {
	t.gate.FireCaller(preempt.KindTLBI)
	t.invalidate(func() { delete(t.entries, vmid) })
}

// InvalidateAll drops everything — TLBI ALLE1IS.
func (t *TLB) InvalidateAll() {
	t.gate.FireCaller(preempt.KindTLBI)
	t.invalidate(func() { clear(t.entries) })
}

// InvalidateStale drops every cached translation whose recorded table
// pages have been rewritten since the fill. A snapshot restore bumps
// the generation of each frame it rewrites, so this one sweep is the
// whole TLB story of a restore: entries over restored table pages
// vanish, entries whose dependencies never moved are provably still
// coherent and stay warm across executions. (The Walk hit path does
// not check dependencies — architecturally a hit is a hit — so stale
// entries must be swept here rather than left to age out, or the next
// execution would both translate through ghosts of the previous one
// and trip CheckCoherence's missing-TLBI report.)
func (t *TLB) InvalidateStale() {
	t.gate.FireCaller(preempt.KindTLBI)
	t.invalidate(func() {
		for _, m := range t.entries {
			for k, e := range m {
				if !e.depsFresh() {
					delete(m, k)
				}
			}
		}
	})
}

// invalidate runs one maintenance sweep under the mutex. Callers fire
// their TLBI preemption point first: a vCPU parked there must not hold
// the mutex.
func (t *TLB) invalidate(sweep func()) {
	if !telemetry.Disabled() {
		telTLBInvalidates.Inc()
	}
	sp := t.tracer.Begin(t.lane, spanTLBInvalidate)
	t.mu.Lock()
	sweep()
	t.mu.Unlock()
	sp.End()
}

// Len returns the number of live entries (testing and diagnostics).
func (t *TLB) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := 0
	for _, m := range t.entries {
		n += len(m)
	}
	return n
}

// CheckCoherence re-walks every live entry tagged vmid against the
// current tables and returns a description of each whose cached
// translation disagrees — the evidence behind the ghost oracle's
// FailStaleTLB alarm. Entries whose dependency generations are
// unchanged are provably coherent and skipped without re-walking; a
// re-walk that still yields the same translation (possibly through a
// split, at a different level) refreshes the entry in place. Stale
// entries are reported once, in (root, stage, page) order, and
// dropped.
//
// The caller must hold the lock of the component owning vmid's tables
// so they are quiescent during the re-walks; the ghost oracle runs
// this from its LockReleasing hook, which the hypervisor calls with
// the component lock still held.
//
//ghost:requires lock=dynamic
func (t *TLB) CheckCoherence(vmid VMID) []string {
	t.mu.Lock()
	defer t.mu.Unlock()
	m := t.entries[vmid]
	var moved []tlbKey
	for k, e := range m {
		if !e.depsFresh() {
			moved = append(moved, k)
		}
	}
	slices.SortFunc(moved, tlbKey.compare)

	var out []string
	for _, k := range moved {
		e := m[k]
		ia := k.page << PageShift
		fresh := t.walkLeafDeps(k.root, ia)
		cachedOA := e.pte.OutputAddr(e.level) + PhysAddr(ia&(LevelSize(e.level)-1))
		if kind := fresh.pte.Kind(fresh.level); kind == EKBlock || kind == EKPage {
			freshOA := fresh.pte.OutputAddr(fresh.level) + PhysAddr(ia&(LevelSize(fresh.level)-1))
			if freshOA == cachedOA && fresh.pte.Attrs() == e.pte.Attrs() {
				fresh.cpu = e.cpu
				m[k] = fresh
				continue
			}
			out = append(out, fmt.Sprintf(
				"vmid %d ia %#x: TLB holds pa=%#x [%v] (level %d, filled by cpu %d) but the tables now give pa=%#x [%v] (level %d) — a required TLBI was not issued",
				vmid, ia, uint64(cachedOA), e.pte.Attrs(), e.level, e.cpu,
				uint64(freshOA), fresh.pte.Attrs(), fresh.level))
		} else {
			out = append(out, fmt.Sprintf(
				"vmid %d ia %#x: TLB holds pa=%#x [%v] (level %d, filled by cpu %d) but a fresh walk finds a %v entry — a required TLBI was not issued",
				vmid, ia, uint64(cachedOA), e.pte.Attrs(), e.level, e.cpu, kind))
		}
		delete(m, k)
	}
	return out
}
