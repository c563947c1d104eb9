package main

import (
	"fmt"
	"time"

	"ghostspec/internal/campaign"
	"ghostspec/internal/telemetry/trace"
)

// workload is one seeded load the benchmark can run.
type workload interface {
	// setup builds the workload's inputs from its seed and returns a
	// digest of them; it runs several times and must repeat exactly.
	setup() (string, error)
	// unit runs one unit of work, passing each of its output checks
	// to check. tr is nil when untraced; a traced unit hands tr to the
	// program, which records on lane 0. An error stops the main loop.
	unit(tr *trace.Tracer, check func(error)) (unitStats, error)
	// checkSet is the traces the check leg replays: the workload's
	// own inputs or outputs.
	checkSet() []checkTrace
	// spansPerUnit bounds the spans one traced unit records, sizing
	// the tracer's ring so no span is dropped.
	spansPerUnit() int
}

// unitStats is what one unit of work did.
type unitStats struct {
	// execs were done at cost: campaign execs, bug sweeps' execs, or
	// trace replay pairs.
	execs int64
	cost  cost
	// latency holds per-item latencies when the workload's latency is
	// something other than a trace replay (hunt: time to a repro).
	latency []time.Duration
	// counters grew by this during the unit's main work (campaigns,
	// sweeps or the replay pass), which cost took.
	counters counterDelta
	// pairs are bare/oracle-on replay pairs the unit ran itself.
	pairs *pairStats
	// counts must read the same in every unit with the same key (the
	// unit repeats the same inputs).
	key    string
	counts []namedCount
	// reps are the campaign reports of a campaign unit.
	reps []*campaign.Report
	// guard are exact counts reported as per-layer metrics, the first
	// unit's.
	guard map[string]float64
}

type namedCount struct {
	name string
	v    int64
}

// Benchmark shape. Set-up repeats so its median is steady.
const (
	setupReps = 5
	// tracedCheckPairs and schedPairs size the traced run's check leg.
	tracedCheckPairs = 32
	schedPairs       = 4
	// attributionTolPct bounds how much of an oracle-on replay the
	// bare replay plus measured hook time may leave unexplained. It is
	// checked on traces of attributionMinOps ops or more on average;
	// on shorter ones (hunt's repros) fixed per-replay costs dominate.
	attributionTolPct = 15
	attributionMinOps = 100
)

// measureSetup runs w's set-up setupReps times and reports the median.
func (b *bench) measureSetup(w workload) {
	var times []float64
	var first string
	for i := 0; i < setupReps; i++ {
		var digest string
		var err error
		c := measure(func() { digest, err = w.setup() })
		times = append(times, c.cpu.Seconds())
		b.check(err)
		if i == 0 {
			first = digest
		} else if digest != first {
			b.check(fmt.Errorf("set-up %d built different inputs from the same seed", i))
		}
	}
	b.report("setup_s", "s", median(times), len(times))
}

// loopStats accumulates the units of a main loop.
type loopStats struct {
	units    int
	execs    int64
	cost     cost
	counters counterDelta
	latency  []time.Duration
	pairs    pairStats
	reps     []*campaign.Report
	guard    map[string]float64
}

// mainLoop runs units for d (at least one) and accumulates them.
func (b *bench) mainLoop(w workload, d time.Duration, tr func() *trace.Tracer, each func(unitStats)) *loopStats {
	ls := &loopStats{guard: map[string]float64{}}
	start := time.Now()
	for ls.units == 0 || time.Since(start) < d {
		var t *trace.Tracer
		if tr != nil {
			t = tr()
		}
		u, err := w.unit(t, b.check)
		if err != nil {
			b.check(err)
			break
		}
		ls.units++
		ls.execs += u.execs
		ls.cost.add(u.cost)
		ls.counters.merge(u.counters)
		ls.latency = append(ls.latency, u.latency...)
		ls.reps = append(ls.reps, u.reps...)
		if u.pairs != nil {
			ls.pairs.mergeFrom(u.pairs)
		}
		for k, v := range u.guard {
			if _, seen := ls.guard[k]; !seen {
				ls.guard[k] = v
			}
		}
		if first, seen := b.counts[u.key]; !seen {
			b.counts[u.key] = u.counts
		} else {
			b.check(sameCounts(first, u.counts))
		}
		if each != nil {
			each(u)
		}
	}
	return ls
}

// sameCounts checks that a unit's counts equal the first unit's.
func sameCounts(first, got []namedCount) error {
	if len(first) != len(got) {
		return fmt.Errorf("unit reports %d counts, first unit %d", len(got), len(first))
	}
	for i := range got {
		if err := exactRepeat(got[i].name, []int64{first[i].v, got[i].v}); err != nil {
			return err
		}
	}
	return nil
}

// mergeFrom folds another accumulator into ps.
func (ps *pairStats) mergeFrom(o *pairStats) {
	ps.pairs += o.pairs
	ps.ops += o.ops
	ps.bare.add(o.bare)
	ps.on.add(o.on)
	ps.onCPU = append(ps.onCPU, o.onCPU...)
	ps.boot = append(ps.boot, o.boot...)
	ps.attach = append(ps.attach, o.attach...)
	ps.hooks += o.hooks
	ps.hookTimer.merge(&o.hookTimer)
	ps.counters.merge(o.counters)
}

// checkLeg replays n traces of w's check set (cycling) as bare/oracle-on
// pairs, timed by the hook timer when timed is set.
func (b *bench) checkLeg(w workload, n int, timed bool) *pairStats {
	ps := &pairStats{}
	set := w.checkSet()
	if len(set) == 0 {
		b.check(fmt.Errorf("check leg: the workload produced no traces to replay"))
		return ps
	}
	for i := 0; i < n; i++ {
		b.check(replayPair(ps, set[i%len(set)], nil, timed))
	}
	return ps
}

// runEndToEnd is the untraced run: set-up, then units for the run's
// seconds.
func (b *bench) runEndToEnd(w workload) {
	b.measureSetup(w)
	ls := b.mainLoop(w, b.seconds, nil, nil)
	latency := ls.latency
	if len(latency) == 0 {
		latency = ls.pairs.onCPU
	}
	b.reportRatio("execs_per_cpu_s", "1/s", float64(ls.execs), ls.cost.cpu.Seconds(), 1, ls.units)
	b.reportRatio("ops_per_cpu_s", "1/s", float64(ls.pairs.ops), ls.pairs.on.cpu.Seconds(), 1, ls.pairs.pairs)
	b.reportRatio("bare_ops_per_cpu_s", "1/s", float64(ls.pairs.ops), ls.pairs.bare.cpu.Seconds(), 1, ls.pairs.pairs)
	// The paper's headline: the oracle's cost as a multiple of the bare
	// replay of the same traces. Both legs of a pair run back to back, so
	// a change in the machine's speed cancels out of the ratio.
	b.reportRatio("oracle_slowdown", "x", ls.pairs.on.cpu.Seconds(), ls.pairs.bare.cpu.Seconds(), 1, ls.pairs.pairs)
	ms := millis(latency)
	b.report("latency_cpu_ms_p50", "ms", quantile(ms, 0.5), len(ms))
	b.report("latency_cpu_ms_p90", "ms", quantile(ms, 0.9), len(ms))
	if p := highestPercentile(len(ms)); p < 90 {
		fmt.Fprintf(b.out, "note: %d latency samples support percentiles up to p%g only\n", len(ms), p)
	}
	rss, err := peakRSSMB()
	b.check(err)
	b.report("peak_rss_mb", "MB", rss, 1)
	for _, m := range []string{"execs_per_cpu_s", "ops_per_cpu_s", "bare_ops_per_cpu_s", "oracle_slowdown", "latency_cpu_ms_p50", "latency_cpu_ms_p90"} {
		if v := b.metrics[m].Value; !(v > 0) {
			b.check(fmt.Errorf("%s = %g: the run measured nothing", m, v))
		}
	}
}
