package main

import (
	"fmt"
	"time"

	"ghostspec/internal/campaign"
	"ghostspec/internal/core/ghost"
	"ghostspec/internal/faults"
	"ghostspec/internal/proxy"
)

// shrinkBudget is the replay budget of each shrink: ghost-fuzz's
// default.
const shrinkBudget = 400

// failingTrace is a trace that fails on its boot's bug build, for the
// shrink leg to minimize.
type failingTrace struct {
	ct checkTrace
	// wantOps is the length the shrink must arrive at, or -1 when no
	// other shrink of the trace is known.
	wantOps int
}

// shrinkSource is a workload whose traced run has a shrink leg: replay
// (failing traces found in its check set) and hunt (its findings). The
// campaign workloads have none: fuzz's check set is replay's, generated
// the same way, so a shrink leg there would time the same shrinks again.
type shrinkSource interface {
	// failing returns the traces to shrink and the bug-build replays
	// spent finding them.
	failing() ([]failingTrace, int, error)
}

// shrinkStats is the shrink leg: campaign.Shrink of each failing
// trace, booting through the benchmark's own timed Factory.
type shrinkStats struct {
	// detectReplays are the bug-build replays spent finding the
	// failing traces in the check set.
	detectReplays int
	shrinks       int
	replays       int
	minOps        int
	wall          time.Duration
	factory       time.Duration
}

// failingFromCheckSet finds, for every injectable bug, the first trace
// of set that makes the oracle alarm when replayed on that bug's build.
// A bug no trace of set triggers is left out. The clean traces were not
// made to find bugs; this only gives the shrinker traces to work on
// that follow from the seed.
func failingFromCheckSet(set []checkTrace) ([]failingTrace, int, error) {
	var out []failingTrace
	replays := 0
	for _, bug := range faults.All() {
		for _, ct := range set {
			ct.boot.bug, ct.wantAlarm = bug, true
			s, err := bootSystem(ct.boot, nil, true, false)
			if err != nil {
				return nil, replays, err
			}
			replays++
			s.replayOn(ct.tr)
			if len(s.rec.Failures()) > 0 {
				out = append(out, failingTrace{ct: ct, wantOps: -1})
				break
			}
		}
	}
	return out, replays, nil
}

// shrinkLeg minimizes each of src's failing traces with
// campaign.Shrink and checks that every repro fails again on a fresh
// boot.
func (b *bench) shrinkLeg(src shrinkSource) *shrinkStats {
	s := &shrinkStats{}
	fs, detect, err := src.failing()
	b.check(err)
	s.detectReplays = detect
	for _, f := range fs {
		b.check(s.shrink(f))
	}
	return s
}

// shrink minimizes f through a Factory that boots afresh and times the
// boot, splitting the shrinker's cost into boots and replays. The
// shrinker replays on the calling goroutine, so a panic in a replay is
// caught here and fails the check instead of the process.
func (s *shrinkStats) shrink(f failingTrace) (err error) {
	bug := f.ct.boot.bug
	factory := func() (*proxy.Driver, *ghost.Recorder, error) {
		t0 := time.Now()
		sys, err := bootSystem(f.ct.boot, nil, true, false)
		s.factory += time.Since(t0)
		if err != nil {
			return nil, nil, err
		}
		return sys.d, sys.rec, nil
	}
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("%s: shrinking a %d-op failing trace panicked: %v", bug, f.ct.tr.Len(), r)
		}
	}()
	t0 := time.Now()
	min, _, replays, ok := campaign.Shrink(factory, f.ct.tr, shrinkBudget)
	s.wall += time.Since(t0)
	s.shrinks++
	s.replays += replays
	s.minOps += min.Len()
	switch {
	case !ok:
		return fmt.Errorf("%s: a %d-op failing trace does not fail again on a fresh boot", bug, f.ct.tr.Len())
	case f.wantOps >= 0 && min.Len() != f.wantOps:
		return fmt.Errorf("%s: shrinking on fresh boots gives a %d-op repro, the engine's snapshot rewinds %d ops",
			bug, min.Len(), f.wantOps)
	}
	repro := f.ct
	repro.tr = min
	return replayPair(&pairStats{}, repro, nil, false)
}
