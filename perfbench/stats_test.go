package main

import (
	"io"
	"math"
	"strings"
	"testing"
	"time"

	"ghostspec/internal/telemetry/trace"
)

func TestQuantile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ q, want float64 }{
		{0, 1}, {0.5, 3}, {0.9, 4.6}, {1, 5},
	} {
		if got := quantile(xs, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quantile(%v, %g) = %g, want %g", xs, c.q, got, c.want)
		}
	}
	if xs[0] != 5 {
		t.Error("quantile sorted its input in place")
	}
	if !math.IsNaN(quantile(nil, 0.5)) {
		t.Error("quantile of no samples must be NaN, not a number")
	}
}

func TestHighestPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {19, 0}, // fewer than ten samples beyond even the median
		{20, 50}, {99, 50}, // p90 would leave only 9 beyond
		{100, 90}, {999, 90},
		{1000, 99}, {9999, 99},
		{10000, 99.9},
	} {
		if got := highestPercentile(c.n); got != c.want {
			t.Errorf("highestPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
	}
	for _, c := range []struct {
		n    int
		p    float64
		want int
	}{
		{100, 90, 10}, {99, 90, 9}, {1000, 99, 10}, {20, 50, 10}, {19, 50, 9}, {10000, 99.9, 10},
	} {
		if got := samplesBeyond(c.n, c.p); got != c.want {
			t.Errorf("samplesBeyond(%d, p%g) = %d, want %d", c.n, c.p, got, c.want)
		}
	}
}

func TestRatioBases(t *testing.T) {
	if r, err := ratio(6, 2); err != nil || r != 3 {
		t.Errorf("ratio(6, 2) = %g, %v; want 3", r, err)
	}
	if r, err := ratio(1, 4); err != nil || r != 0.25 {
		t.Errorf("ratio(1, 4) = %g, %v; want 0.25 (the second argument is the base)", r, err)
	}
	for _, base := range []float64{0, -1, math.NaN(), math.Inf(1)} {
		if _, err := ratio(1, base); err == nil {
			t.Errorf("ratio(1, %g) accepted a base that is not positive and finite", base)
		}
	}
	if _, err := ratio(math.NaN(), 1); err == nil {
		t.Error("ratio accepted a NaN numerator")
	}
}

func TestExactRepeat(t *testing.T) {
	if err := exactRepeat("execs", []int64{256, 256, 256}); err != nil {
		t.Errorf("equal counts rejected: %v", err)
	}
	err := exactRepeat("corpus_size", []int64{2, 2, 3})
	if err == nil || !strings.Contains(err.Error(), "corpus_size") {
		t.Errorf("a count that drifted was accepted or not named: %v", err)
	}
	first := []namedCount{{"execs", 256}, {"novel_runs", 2}}
	if err := sameCounts(first, []namedCount{{"execs", 256}, {"novel_runs", 2}}); err != nil {
		t.Errorf("identical units rejected: %v", err)
	}
	if err := sameCounts(first, []namedCount{{"execs", 256}, {"novel_runs", 3}}); err == nil {
		t.Error("a unit whose count differs was accepted")
	}
	if err := sameCounts(first, first[:1]); err == nil {
		t.Error("a unit reporting fewer counts was accepted")
	}
}

// TestReportSampleCounts checks that every metric carries its sample
// count and that a ratio over an unmeasured base fails the run rather
// than reporting a number.
func TestReportSampleCounts(t *testing.T) {
	b := &bench{out: io.Discard, errs: io.Discard, metrics: map[string]metric{}, samples: map[string]int{}}
	b.report("latency_ms_p50", "ms", 1.5, 120)
	b.reportRatio("ops_per_s", "1/s", 300, 2, 1, 7)
	if b.samples["latency_ms_p50"] != 120 || b.samples["ops_per_s"] != 7 {
		t.Errorf("sample counts %v, want latency_ms_p50=120 ops_per_s=7", b.samples)
	}
	if m := b.metrics["ops_per_s"]; m.Value != 150 || m.Unit != "1/s" {
		t.Errorf("ops_per_s = %+v, want 150 1/s", m)
	}
	if b.failed != 0 {
		t.Fatalf("%d failures from valid metrics", b.failed)
	}
	b.reportRatio("bare_ops_per_s", "1/s", 300, 0, 1, 0)
	if b.failed != 1 {
		t.Errorf("a zero base did not fail the run (failed=%d)", b.failed)
	}
	if len(b.names) != 3 {
		t.Errorf("reported names %v, want three in order", b.names)
	}
}

// TestSummarizeSelfTimes builds a span tree on a real tracer and checks
// that self times partition the root spans, and that a scheduled
// replay is booked whole to the scheduler.
func TestSummarizeSelfTimes(t *testing.T) {
	var (
		exec  = trace.NewName("exec")
		run   = trace.NewName("exec.run")
		trap  = trace.NewName("hyp.trap:host_share_hyp")
		check = trace.NewName("ghost.check")
		sch   = trace.NewName("exec.sched")
		rsch  = trace.NewName("randtest.replay-sched")
	)
	spin := func() {
		for t0 := time.Now(); time.Since(t0) < 200*time.Microsecond; {
		}
	}
	tr := trace.NewTracer(1, 64)
	trace.SetEnabled(true)
	defer trace.SetEnabled(false)
	for i := 0; i < 2; i++ {
		e := tr.Begin(0, exec)
		r := tr.Begin(0, run)
		spin()
		tp := tr.Begin(0, trap)
		spin()
		c := tr.Begin(0, check)
		spin()
		c.End()
		tp.End()
		r.End()
		s := tr.Begin(0, sch)
		rs := tr.Begin(0, rsch)
		inner := tr.Begin(0, trap) // inside a scheduled replay: not looked at
		spin()
		inner.End()
		rs.End()
		s.End()
		e.End()
	}
	trace.SetEnabled(false)

	s := summarize(tr)
	if s.execs != 2 {
		t.Errorf("execs = %d, want 2", s.execs)
	}
	var sum time.Duration
	for l := range s.self {
		if s.self[l] < 0 {
			t.Errorf("layer %s has negative self time %v", layerNames[l], s.self[l])
		}
		sum += s.self[l]
	}
	if sum != s.base {
		t.Errorf("self times sum to %v, root spans to %v", sum, s.base)
	}
	for _, l := range []int{layerHarness, layerImpl, layerOracle, layerSched} {
		if s.self[l] <= 0 {
			t.Errorf("layer %s got no self time", layerNames[l])
		}
	}
	if s.self[layerSched] < 2*200*time.Microsecond {
		t.Errorf("sched self %v misses the scheduled replays' contents", s.self[layerSched])
	}
	if s.trap >= s.phase["exec.run"] || s.trap <= s.check {
		t.Errorf("trap time %v must exclude scheduled replays and include its check (%v) inside run %v",
			s.trap, s.check, s.phase["exec.run"])
	}
	if s.phase["exec.run"] == 0 || s.phase["exec.sched"] == 0 {
		t.Errorf("phases %v miss the direct children of exec", s.phase)
	}
}
