package main

import (
	"flag"
	"strings"
	"testing"

	"ghostspec/internal/campaign"
	"ghostspec/internal/core/ghost"
	"ghostspec/internal/faults"
	"ghostspec/internal/hyp"
	"ghostspec/internal/proxy"
	"ghostspec/internal/randtest"
	"ghostspec/internal/sched"
)

// TestReproLineRegeneratesTrace runs a seeded single-worker campaign
// on a buggy build and then runs the repro line it prints for the
// first finding: the command must regenerate the finding's trace op
// for op.
func TestReproLineRegeneratesTrace(t *testing.T) {
	cfg := campaign.Config{
		Workers: 1, StepsPerRun: 400, Seed: 7, NrCPUs: 4,
		Bugs:        []faults.Bug{faults.BugMemcacheSize},
		MaxFindings: 1, MaxExecs: 64, ShrinkReplays: 1,
	}
	f := firstFinding(t, cfg)
	if f.FromCorpus {
		t.Fatal("first finding extended a corpus parent; pick a seed whose first finding does not")
	}
	line := reproLine(cfg, f)
	if got := rerun(t, line); got.String() != f.Trace.String() {
		t.Fatalf("repro %q reran a %d-op trace, not the finding's %d-op trace", line, got.Len(), f.Trace.Len())
	}
}

func firstFinding(t *testing.T, cfg campaign.Config) campaign.Finding {
	t.Helper()
	rep, err := campaign.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Findings) == 0 {
		t.Fatalf("no finding in %d execs", rep.Execs)
	}
	return rep.Findings[0]
}

// rerun executes a repro command the way its binary would and returns
// the trace of the run it reproduces: cmd/randtest's generator run, or
// the first finding of a ghost-fuzz campaign.
func rerun(t *testing.T, line string) *randtest.Trace {
	t.Helper()
	args := strings.Fields(line)
	fs := flag.NewFlagSet(args[0], flag.ContinueOnError)
	seed := fs.Int64("seed", 1, "")
	steps := fs.Int("steps", 400, "")
	bug := fs.String("bug", "", "")
	guided := fs.Bool("guided", true, "")
	workers := fs.Int("workers", 0, "")
	if err := fs.Parse(args[1:]); err != nil {
		t.Fatalf("repro %q: %v", line, err)
	}
	bugs, err := parseBugs(*bug)
	if err != nil {
		t.Fatalf("repro %q: %v", line, err)
	}
	switch args[0] {
	case "randtest":
		hv, err := hyp.New(hyp.Config{Inj: faults.NewInjector(bugs...)})
		if err != nil {
			t.Fatal(err)
		}
		gen := randtest.New(proxy.New(hv), ghost.Attach(hv), *seed, *guided)
		gen.Trace = &randtest.Trace{}
		gen.Run(*steps)
		return gen.Trace
	case "ghost-fuzz":
		return firstFinding(t, campaign.Config{
			Workers: *workers, StepsPerRun: *steps, Seed: *seed, Unguided: !*guided,
			Bugs: bugs, MaxFindings: 1, MaxExecs: 64, ShrinkReplays: 1,
		}).Trace
	}
	t.Fatalf("repro %q runs no known command", line)
	return nil
}

// TestReproLineLocatesOtherRuns pins that a run cmd/randtest cannot
// boot, or a scheduled run, is located in its campaign rather than
// given a command that reruns something else.
func TestReproLineLocatesOtherRuns(t *testing.T) {
	f := campaign.Finding{Worker: 2, Exec: 31, Seed: 99}
	for _, tc := range []struct {
		name string
		cfg  campaign.Config
		f    campaign.Finding
	}{
		{"two vCPUs", campaign.Config{Seed: 7, NrCPUs: 2}, f},
		{"big memory", campaign.Config{Seed: 7, NrCPUs: 4, BigMemory: true}, f},
		{"two bugs", campaign.Config{Seed: 7, NrCPUs: 4, Bugs: []faults.Bug{faults.BugMemcacheSize, faults.BugVCPULoadRace}}, f},
		{"scheduled", campaign.Config{Seed: 7, NrCPUs: 4}, campaign.Finding{Worker: 2, Exec: 31, Seed: 99, Sched: &sched.Schedule{}, SchedSeed: 5}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			line := reproLine(tc.cfg, tc.f)
			if !strings.HasPrefix(line, "campaign seed 7, worker 2, exec 31, run seed 99") ||
				!strings.HasSuffix(line, "no single command replays this run") {
				t.Fatalf("repro %q does not locate the run in its campaign", line)
			}
		})
	}
}
