package arch

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// tlbWalk is the test shorthand: a stage 2 hardware read walk for vmid
// through t over the table built by buildTestTable.
func tlbWalk(t *TLB, root PhysAddr, vmid VMID, ia uint64) (WalkResult, *Fault) {
	return t.Walk(0, root, Stage2, vmid, ia, Access{})
}

func TestTLBHitServesStaleTranslation(t *testing.T) {
	m := NewMemory(DefaultLayout())
	root := buildTestTable(m)
	tlb := NewTLB(m)

	res, f := tlbWalk(tlb, root, 1, 0x0)
	if f != nil || res.OutputAddr != 0x4000_0000 {
		t.Fatalf("first walk: %#x, fault %v", uint64(res.OutputAddr), f)
	}
	if tlb.Len() != 1 {
		t.Fatalf("Len = %d after one fill", tlb.Len())
	}

	// Rewrite the leaf without a TLBI: the hardware path must keep
	// serving the cached (now stale) translation — that is the modelled
	// bug class, not a cache defect.
	l3 := PhysAddr(0x9000_3000)
	m.WritePTE(l3, 0, MakeLeaf(3, 0x4000_5000, Attrs{Perms: PermRWX, Mem: MemNormal}))
	res, f = tlbWalk(tlb, root, 1, 0x0)
	if f != nil || res.OutputAddr != 0x4000_0000 {
		t.Errorf("post-rewrite hit: %#x, fault %v, want stale 0x4000_0000", uint64(res.OutputAddr), f)
	}

	// After the TLBI the next walk misses and sees the new leaf.
	tlb.InvalidateIPA(1, 0x0)
	if tlb.Len() != 0 {
		t.Errorf("Len = %d after invalidate", tlb.Len())
	}
	res, f = tlbWalk(tlb, root, 1, 0x0)
	if f != nil || res.OutputAddr != 0x4000_5000 {
		t.Errorf("post-TLBI walk: %#x, fault %v", uint64(res.OutputAddr), f)
	}
}

func TestTLBInvalidateRangeCoversBlocks(t *testing.T) {
	m := NewMemory(DefaultLayout())
	root := buildTestTable(m)
	tlb := NewTLB(m)

	// Fill from the 2MB block via one page inside it.
	if _, f := tlbWalk(tlb, root, 1, 0x20_0000); f != nil {
		t.Fatalf("block walk faulted: %v", f)
	}
	// A page-granule TLBI for a *different* page the block covers must
	// still drop the entry: invalidation matches leaf coverage, not the
	// filling address.
	tlb.InvalidateIPA(1, 0x20_0000+17*PageSize)
	if tlb.Len() != 0 {
		t.Errorf("block entry survived a TLBI inside its range (Len %d)", tlb.Len())
	}

	// And one just outside the block leaves it alone.
	if _, f := tlbWalk(tlb, root, 1, 0x20_0000); f != nil {
		t.Fatalf("refill walk faulted: %v", f)
	}
	tlb.InvalidateIPA(1, 0x20_0000+LevelSize(2))
	if tlb.Len() != 1 {
		t.Errorf("TLBI outside the block dropped it (Len %d)", tlb.Len())
	}
}

func TestTLBInvalidateVMIDAndAll(t *testing.T) {
	m := NewMemory(DefaultLayout())
	root := buildTestTable(m)
	tlb := NewTLB(m)

	for _, vmid := range []VMID{1, 2} {
		if _, f := tlbWalk(tlb, root, vmid, 0x0); f != nil {
			t.Fatalf("walk vmid %d faulted: %v", vmid, f)
		}
		if _, f := tlbWalk(tlb, root, vmid, 0x1000); f != nil {
			t.Fatalf("walk vmid %d faulted: %v", vmid, f)
		}
	}
	if tlb.Len() != 4 {
		t.Fatalf("Len = %d, want 4", tlb.Len())
	}
	tlb.InvalidateVMID(1)
	if tlb.Len() != 2 {
		t.Errorf("Len = %d after InvalidateVMID(1), want 2", tlb.Len())
	}
	if len(tlb.entries[2]) != 2 {
		t.Error("vmid 2 entries lost to vmid 1's TLBI")
	}
	tlb.InvalidateAll()
	if tlb.Len() != 0 {
		t.Errorf("Len = %d after InvalidateAll", tlb.Len())
	}
}

func TestTLBPermissionFaultStillCaches(t *testing.T) {
	m := NewMemory(DefaultLayout())
	root := buildTestTable(m)
	tlb := NewTLB(m)

	// Page 1 is RW-: an exec walk faults but the translation itself is
	// valid and cacheable; the permission check is per access.
	if _, f := tlb.Walk(0, root, Stage2, 1, 0x1000, Access{Exec: true}); f == nil || f.Kind != FaultPermission {
		t.Fatalf("exec fault = %+v", f)
	}
	if tlb.Len() != 1 {
		t.Fatalf("Len = %d, want the faulting walk cached", tlb.Len())
	}
	// The cached entry serves a read hit and still exec-faults.
	if res, f := tlbWalk(tlb, root, 1, 0x1000); f != nil || res.OutputAddr != 0x4000_1000 {
		t.Errorf("read after exec fault: %#x, fault %v", uint64(res.OutputAddr), f)
	}
	if _, f := tlb.Walk(0, root, Stage2, 1, 0x1000, Access{Exec: true}); f == nil || f.Kind != FaultPermission {
		t.Errorf("cached exec fault = %+v", f)
	}
	// Faulting (invalid) walks are not cached.
	tlb.InvalidateAll()
	if _, f := tlbWalk(tlb, root, 1, 0x5000); f == nil {
		t.Fatal("translation fault expected")
	}
	if tlb.Len() != 0 {
		t.Errorf("Len = %d, invalid walk was cached", tlb.Len())
	}
}

func TestTLBCheckCoherence(t *testing.T) {
	m := NewMemory(DefaultLayout())
	root := buildTestTable(m)
	tlb := NewTLB(m)

	if _, f := tlbWalk(tlb, root, 1, 0x0); f != nil {
		t.Fatalf("walk faulted: %v", f)
	}
	// Fresh entry: coherent, nothing reported.
	if stale := tlb.CheckCoherence(1); len(stale) != 0 {
		t.Fatalf("fresh entry reported stale: %v", stale)
	}

	// A generation bump that does not change the translation (rewriting
	// the same descriptor) refreshes the entry instead of reporting it.
	l3 := PhysAddr(0x9000_3000)
	m.WritePTE(l3, 0, MakeLeaf(3, 0x4000_0000, Attrs{Perms: PermRWX, Mem: MemNormal}))
	if stale := tlb.CheckCoherence(1); len(stale) != 0 {
		t.Fatalf("equal re-walk reported stale: %v", stale)
	}
	if tlb.Len() != 1 {
		t.Fatalf("Len = %d after refresh", tlb.Len())
	}

	// Now genuinely change the translation without a TLBI.
	m.WritePTE(l3, 0, MakeLeaf(3, 0x4000_8000, Attrs{Perms: PermRWX, Mem: MemNormal}))
	stale := tlb.CheckCoherence(1)
	if len(stale) != 1 || !strings.Contains(stale[0], "TLBI was not issued") {
		t.Fatalf("stale report = %v", stale)
	}
	// Reported once, then dropped.
	if tlb.Len() != 0 {
		t.Errorf("Len = %d after stale report", tlb.Len())
	}
	if again := tlb.CheckCoherence(1); len(again) != 0 {
		t.Errorf("stale entry reported twice: %v", again)
	}

	// Unmapping underneath a cached entry is the other report shape.
	if _, f := tlbWalk(tlb, root, 1, 0x1000); f != nil {
		t.Fatalf("walk faulted: %v", f)
	}
	m.WritePTE(l3, 1, 0)
	stale = tlb.CheckCoherence(1)
	if len(stale) != 1 || !strings.Contains(stale[0], "fresh walk finds") {
		t.Errorf("unmapped-entry report = %v", stale)
	}

	// Other VMIDs' entries are out of scope for the check.
	if _, f := tlbWalk(tlb, root, 2, 0x0); f != nil {
		t.Fatalf("walk faulted: %v", f)
	}
	m.WritePTE(l3, 0, MakeLeaf(3, 0x4000_9000, Attrs{Perms: PermRWX, Mem: MemNormal}))
	if stale := tlb.CheckCoherence(1); len(stale) != 0 {
		t.Errorf("vmid 1 check reported vmid 2's entry: %v", stale)
	}
}

func TestTLBEmptyIsNoop(t *testing.T) {
	m := NewMemory(DefaultLayout())
	tlb := NewTLB(m)
	tlb.InvalidateIPA(1, 0x0)
	tlb.InvalidateRange(1, 0x0, PageSize)
	tlb.InvalidateVMID(1)
	tlb.InvalidateAll()
	tlb.InvalidateStale()
	if tlb.Len() != 0 {
		t.Error("empty TLB has entries")
	}
	if stale := tlb.CheckCoherence(1); stale != nil {
		t.Errorf("empty TLB reported stale entries: %v", stale)
	}
}

func TestTLBCheckCoherenceOrder(t *testing.T) {
	const pages = 8
	l3 := PhysAddr(0x9000_3000)
	attrs := Attrs{Perms: PermRW, Mem: MemNormal}
	// stale fills pages 0..pages-1 plus the 2MB block, then remaps all
	// of them without a TLBI and returns the coherence report.
	stale := func() []string {
		m := NewMemory(DefaultLayout())
		root := buildTestTable(m)
		tlb := NewTLB(m)
		for i := 0; i < pages; i++ {
			m.WritePTE(l3, i, MakeLeaf(3, PhysAddr(0x4000_0000+i*PageSize), attrs))
		}
		for ia := uint64(0); ia < pages*PageSize; ia += PageSize {
			if _, f := tlbWalk(tlb, root, 1, ia); f != nil {
				t.Fatalf("walk %#x faulted: %v", ia, f)
			}
		}
		if _, f := tlbWalk(tlb, root, 1, 0x20_0000); f != nil {
			t.Fatalf("block walk faulted: %v", f)
		}
		for i := 0; i < pages; i++ {
			m.WritePTE(l3, i, MakeLeaf(3, PhysAddr(0x5000_0000+i*PageSize), attrs))
		}
		m.WritePTE(PhysAddr(0x9000_2000), 1, 0)
		return tlb.CheckCoherence(1)
	}
	first := stale()
	if len(first) != pages+1 {
		t.Fatalf("got %d stale reports, want %d: %v", len(first), pages+1, first)
	}
	for i := 0; i < pages; i++ {
		if want := fmt.Sprintf("vmid 1 ia %#x:", i*PageSize); !strings.HasPrefix(first[i], want) {
			t.Errorf("report %d = %q, want prefix %q", i, first[i], want)
		}
	}
	for run := 0; run < 20; run++ {
		if again := stale(); !slices.Equal(again, first) {
			t.Fatalf("run %d reported a different order:\n%v\nwant\n%v", run, again, first)
		}
	}
}

// TestTLBConcurrentInvalidate races hardware walks of one IA against a
// mutator that keeps switching its leaf between two frames. Every TLBI
// must leave no earlier translation behind: the mutator's own walk
// right after it sees the new frame, and the final coherence check
// finds nothing stale. Run under -race it also checks the locking.
func TestTLBConcurrentInvalidate(t *testing.T) {
	m := NewMemory(DefaultLayout())
	root := buildTestTable(m)
	tlb := NewTLB(m)
	l3 := PhysAddr(0x9000_3000)
	frames := [2]PhysAddr{0x4000_0000, 0x4000_5000}
	attrs := Attrs{Perms: PermRWX, Mem: MemNormal}

	var stop atomic.Bool
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for cpu := 1; cpu <= 4; cpu++ {
		wg.Add(1)
		go func(cpu int) {
			defer wg.Done()
			for !stop.Load() {
				res, f := tlb.Walk(cpu, root, Stage2, 1, 0x0, Access{})
				if f != nil || (res.OutputAddr != frames[0] && res.OutputAddr != frames[1]) {
					errs <- fmt.Errorf("cpu %d walk: %#x, fault %v", cpu, uint64(res.OutputAddr), f)
					return
				}
			}
		}(cpu)
	}
	for i := 1; i <= 2000; i++ {
		want := frames[i%2]
		m.WritePTE(l3, 0, MakeLeaf(3, want, attrs))
		tlb.InvalidateIPA(1, 0x0)
		if res, f := tlb.Walk(0, root, Stage2, 1, 0x0, Access{}); f != nil || res.OutputAddr != want {
			t.Errorf("switch %d: walk after TLBI = %#x, fault %v, want %#x", i, uint64(res.OutputAddr), f, uint64(want))
			break
		}
	}
	stop.Store(true)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if stale := tlb.CheckCoherence(1); len(stale) != 0 {
		t.Errorf("stale entries after the race: %v", stale)
	}
}
