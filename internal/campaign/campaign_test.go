package campaign

import (
	"testing"
	"time"

	"ghostspec/internal/faults"
	"ghostspec/internal/telemetry/trace"
)

// TestCampaignCleanNoFindings runs a short parallel campaign on the
// fixed build: no findings, and coverage/corpus machinery engaged.
func TestCampaignCleanNoFindings(t *testing.T) {
	rep, err := Run(Config{Workers: 2, StepsPerRun: 150, Seed: 7, MaxExecs: 8})
	if err != nil {
		t.Fatalf("campaign: %v", err)
	}
	if len(rep.Findings) != 0 {
		t.Fatalf("clean build produced %d findings; first: %v",
			len(rep.Findings), rep.Findings[0].Failures[0])
	}
	if rep.Execs < 8 {
		t.Errorf("execs = %d, want >= 8", rep.Execs)
	}
	if rep.Coverage.Traps == 0 {
		t.Error("campaign observed no traps")
	}
	if rep.NovelRuns == 0 || rep.CorpusSize == 0 {
		t.Errorf("novelty machinery idle: novel=%d corpus=%d", rep.NovelRuns, rep.CorpusSize)
	}
	if rep.ExecsPerSec <= 0 {
		t.Errorf("execs/sec = %v, want > 0", rep.ExecsPerSec)
	}
}

// TestCampaignNeedsStopCondition pins the guard against unbounded
// campaigns.
func TestCampaignNeedsStopCondition(t *testing.T) {
	if _, err := Run(Config{Workers: 1}); err == nil {
		t.Fatal("campaign without a stop condition did not error")
	}
}

// TestCampaignDeterministicRepro is the acceptance check for seeded
// reproduction: a single-worker campaign against a known-bad build,
// run twice with the same seed, finds the bug both times and shrinks
// it to the identical minimized trace of at most 10 ops.
func TestCampaignDeterministicRepro(t *testing.T) {
	cfg := Config{
		Workers:       1,
		StepsPerRun:   200,
		Seed:          5,
		Bugs:          []faults.Bug{faults.BugUnshareLeaveMapping},
		MaxFindings:   1,
		MaxExecs:      200,
		ShrinkReplays: 4000,
	}
	run := func() Finding {
		rep, err := Run(cfg)
		if err != nil {
			t.Fatalf("campaign: %v", err)
		}
		if len(rep.Findings) == 0 {
			t.Fatalf("campaign missed %s within %d execs", cfg.Bugs[0], rep.Execs)
		}
		return rep.Findings[0]
	}
	a, b := run(), run()

	for _, f := range []Finding{a, b} {
		if !f.Reproducible {
			t.Error("finding's original trace did not reproduce")
		}
		if len(f.MinFailures) == 0 {
			t.Error("finding has no minimized-trace failures")
		}
		if f.Min.Len() > 10 {
			t.Errorf("minimized repro has %d ops, want <= 10:\n%s", f.Min.Len(), f.Min)
		}
	}
	if a.Exec != b.Exec || a.Seed != b.Seed {
		t.Errorf("discovery diverged across identical campaigns: exec %d/%d seed %d/%d",
			a.Exec, b.Exec, a.Seed, b.Seed)
	}
	if a.Min.String() != b.Min.String() {
		t.Errorf("minimized repro not deterministic:\nfirst:\n%s\nsecond:\n%s", a.Min, b.Min)
	}
	t.Logf("deterministic minimized repro (%d ops):\n%s", a.Min.Len(), a.Min)
}

// TestCampaignParallelWorkers exercises the multi-worker path (shared
// aggregate, shared corpus) under the race detector in CI.
func TestCampaignParallelWorkers(t *testing.T) {
	rep, err := Run(Config{Workers: 4, StepsPerRun: 100, Seed: 3, MaxExecs: 12})
	if err != nil {
		t.Fatalf("campaign: %v", err)
	}
	if len(rep.Findings) != 0 {
		t.Fatalf("clean build produced findings: %v", rep.Findings[0].Failures[0])
	}
	if rep.Execs < 12 {
		t.Errorf("execs = %d, want >= 12", rep.Execs)
	}
}

// TestExecPhasesAttributeExecTime pins the phase spans as a disjoint
// cover of exec wall time. A traced single-worker campaign on the
// fixed build, with rings sized to keep every span, must attribute at
// least 80% of exec time plus the once-per-worker root boots to the
// phase spans: less means an expensive stage runs outside any phase.
// More than 100% means a phase is counted against a base that never
// saw it. Dropped spans would make the figure partial, and a finding
// would skew the shrink phase, so both fail the test too.
func TestExecPhasesAttributeExecTime(t *testing.T) {
	const floorPct, ceilingPct = 80.0, 100.0
	tr := trace.NewTracer(1, 1<<18)
	prev := trace.Enabled()
	trace.SetEnabled(true)
	rep, err := Run(Config{Workers: 1, StepsPerRun: 200, Seed: 1, MaxExecs: 32, Tracer: tr})
	trace.SetEnabled(prev)
	if err != nil {
		t.Fatalf("campaign: %v", err)
	}
	if len(rep.Findings) != 0 {
		t.Fatalf("clean build produced %d findings; first: %v",
			len(rep.Findings), rep.Findings[0].Failures[0])
	}
	if n := tr.Dropped(); n != 0 {
		t.Fatalf("%d spans dropped at the rings: attribution would be partial", n)
	}

	var base, attributed time.Duration
	for _, s := range tr.Spans() {
		switch s.Name {
		case spanExec:
			base += s.Dur
		case spanExecBoot:
			// Worker-system boots are root spans outside any exec, so
			// they belong to the base as well as to the boot phase.
			if s.Parent < 0 {
				base += s.Dur
			}
			attributed += s.Dur
		case spanExecRestore, spanExecReplay, spanExecRun, spanExecCorpus, spanExecShrink:
			attributed += s.Dur
		}
	}
	if base == 0 {
		t.Fatal("no exec spans recorded")
	}
	pct := 100 * float64(attributed) / float64(base)
	t.Logf("phase spans attribute %.2f%% of %v (exec + root boots)", pct, base)
	if pct < floorPct || pct > ceilingPct {
		t.Errorf("phase spans attribute %.2f%% of exec time, want within [%.0f%%, %.0f%%]",
			pct, floorPct, ceilingPct)
	}
}
