package spinlock

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// Runtime lock-rank validation: the dynamic half of ghostlint's
// lock-discipline checking (the static half lives in
// internal/analysis). Every ranked lock carries an integer rank;
// while validation is enabled, each goroutine's currently-held locks
// are tracked and any acquisition that does not strictly ascend the
// rank order panics immediately — at the acquisition point, before
// the ordering can deadlock against another thread.
//
// The hypervisor's rank table (declared where the locks are built, in
// internal/hyp) is:
//
//	vms (1) < guest (2) < host (3) < hyp/pkvm (4)
//
// matching the acquisition order of every hypercall path: the VM
// table is taken before a guest's stage 2 lock, which is taken before
// the host stage 2 lock, which is taken before the hypervisor's own
// stage 1 lock. Rank 0 means unranked: the lock participates in
// held-set tracking (double unlock, unlock by non-owner) but not in
// order checking.
//
// Validation costs one atomic load per Lock/Unlock when disabled and
// a global map update when enabled; it is meant for tests and -race
// CI runs, mirroring how the paper's ghost machinery is compiled in
// only for checking builds.

// rankCheckOn gates the validator; see EnableRankCheck.
var rankCheckOn atomic.Bool

// heldMu guards heldLocks. A plain mutex is fine here: the validator
// is a test-only facility and the critical sections are tiny.
var heldMu sync.Mutex

// heldLocks maps a goroutine ID to the stack of spinlocks it holds,
// in acquisition order.
var heldLocks = make(map[uint64][]*Lock)

// EnableRankCheck turns on runtime lock-rank validation for the whole
// process. Intended for tests; pair with DisableRankCheck (typically
// via t.Cleanup).
func EnableRankCheck() { rankCheckOn.Store(true) }

// DisableRankCheck turns validation off and drops all held-lock
// tracking state.
func DisableRankCheck() {
	rankCheckOn.Store(false)
	heldMu.Lock()
	heldLocks = make(map[uint64][]*Lock)
	heldMu.Unlock()
}

// noteAcquire validates and records an acquisition by the calling
// goroutine. It runs before the lock is actually taken so a rank
// inversion panics at the guilty call site instead of deadlocking
// against a concurrent thread holding the locks in the other order.
func noteAcquire(l *Lock) {
	id := goid()
	heldMu.Lock()
	defer heldMu.Unlock()
	for _, h := range heldLocks[id] {
		if h == l {
			panic(fmt.Sprintf("spinlock: recursive acquisition of %q", l.name()))
		}
		if l.rank != 0 && h.rank != 0 && h.rank >= l.rank {
			panic(fmt.Sprintf(
				"spinlock: lock rank inversion: acquiring %q (rank %d) while holding %q (rank %d); "+
					"ranked locks must be acquired in ascending rank order (vms < guest < host < hyp)",
				l.name(), l.rank, h.name(), h.rank))
		}
	}
	heldLocks[id] = append(heldLocks[id], l)
}

// noteRelease records a release, panicking if the calling goroutine
// does not hold the lock (double unlock, or unlock from the wrong
// thread).
func noteRelease(l *Lock) {
	id := goid()
	heldMu.Lock()
	defer heldMu.Unlock()
	hs := heldLocks[id]
	for i := len(hs) - 1; i >= 0; i-- {
		if hs[i] == l {
			hs = append(hs[:i], hs[i+1:]...)
			if len(hs) == 0 {
				delete(heldLocks, id)
			} else {
				heldLocks[id] = hs
			}
			return
		}
	}
	panic(fmt.Sprintf("spinlock: unlock of %q by a goroutine that does not hold it", l.name()))
}

// goid returns the calling goroutine's ID by parsing the first stack
// line ("goroutine N [running]:"). There is no supported API for
// this; the parse is the standard trick and the validator is a
// test-only facility, so the cost and the fragility are acceptable.
func goid() uint64 {
	var buf [64]byte
	n := runtime.Stack(buf[:], false)
	s := buf[:n]
	const prefix = "goroutine "
	if len(s) < len(prefix) {
		return 0
	}
	s = s[len(prefix):]
	var id uint64
	for i := 0; i < len(s) && s[i] >= '0' && s[i] <= '9'; i++ {
		id = id*10 + uint64(s[i]-'0')
	}
	return id
}
