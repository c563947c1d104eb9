package main

import (
	"fmt"

	"ghostspec/internal/telemetry/trace"
)

// runTraced is the per-layer run. Half the time runs untraced: counter
// deltas, allocation and GC, and the untraced rate the tracing overhead
// is measured against. Half runs a fresh copy of the workload, so its
// units repeat the first half's inputs, with the engine's tracer. Then
// the check leg replays with the hook timer around the ghost recorder,
// scheduled replays time the scheduler, boots are timed, and the shrink
// leg times the shrinker.
func (b *bench) runTraced(mk func(int64) workload) {
	half := b.seconds / 2
	w := mk(b.seed)
	if _, err := w.setup(); err != nil {
		b.check(err)
		return
	}

	plain := b.mainLoop(w, half, nil, nil)

	w = mk(b.seed)
	if _, err := w.setup(); err != nil {
		b.check(err)
		return
	}
	var spans spanSummary
	var cur *trace.Tracer
	trace.SetEnabled(true)
	traced := b.mainLoop(w, half, func() *trace.Tracer {
		cur = trace.NewTracer(1, w.spansPerUnit())
		return cur
	}, func(unitStats) {
		spans.merge(summarize(cur))
	})
	trace.SetEnabled(false)

	ps := b.checkLeg(w, tracedCheckPairs, true)
	var ss schedStats
	n := 0
	for _, ct := range w.checkSet() {
		if n == schedPairs {
			break
		}
		if ct.tr.Len() == 0 {
			continue
		}
		n++
		err := schedPair(&ss, ct, uint64(b.seed)+uint64(n))
		if !ct.wantAlarm {
			b.check(err)
		}
	}

	var sh *shrinkStats
	if src, ok := w.(shrinkSource); ok {
		sh = b.shrinkLeg(src)
	}

	b.reportLayers(plain, traced, &spans, ps, &ss)
	b.reportShrink(sh)

	// hunt's own exact counts, from its sweeps' findings.
	if _, ok := w.(*huntLoad); ok {
		for _, g := range huntCounts {
			b.report(g, "count", plain.guard[g], plain.units)
		}
	}
}

// reportLayers reports every per-layer metric. Ratios whose base the
// workload never exercises (no campaign in replay) report 0 for counts
// and shares.
func (b *bench) reportLayers(plain, traced *loopStats, spans *spanSummary, ps *pairStats, ss *schedStats) {
	cd := plain.counters
	ops := float64(ps.ops)
	perOp := func(name, counter string) {
		b.reportRatio(name, "count", float64(ps.counters[counter]), ops, 1, ps.pairs)
	}
	// per is part/whole where a zero whole means the layer did no
	// work in this workload.
	per := func(part, whole float64) float64 {
		if whole <= 0 {
			return 0
		}
		return part / whole
	}
	share := func(part, whole float64) float64 { return 100 * per(part, whole) }

	// core/ghost: recording and checking, from the hook timer.
	h := &ps.hookTimer
	b.report("ghost.record_pre_us", "us", h.pre.meanMicros(), int(h.pre.n.Load()))
	b.report("ghost.record_post_us", "us", h.post.meanMicros(), int(h.post.n.Load()))
	b.report("ghost.trap_entry_us", "us", h.entry.meanMicros(), int(h.entry.n.Load()))
	b.report("ghost.check_us", "us", h.exit.meanMicros(), int(h.exit.n.Load()))
	b.reportRatio("ghost.lock_events_per_op", "count", float64(h.lockEvents()), ops, 1, ps.pairs)
	b.reportRatio("ghost.hook_pct", "%", float64(ps.hooks), float64(ps.on.wall), 100, ps.pairs)

	// core/ghost: caches and allocation.
	hits := float64(cd["ghost_cache_hits_total"])
	lookups := hits + float64(cd["ghost_cache_misses_total"]+cd["ghost_cache_partial_walks_total"])
	b.reportRatio("ghost.cache_hit_pct", "%", hits, lookups, 100, plain.units)
	perOp("ghost.cache_pages_reinterpreted_per_op", "ghost_cache_pages_reinterpreted_total")
	b.reportRatio("go.alloc_bytes_per_op", "B", float64(ps.on.alloc), ops, 1, ps.pairs)
	b.reportRatio("go.alloc_bytes_per_exec", "B", float64(plain.cost.alloc), float64(plain.execs), 1, plain.units)
	b.reportRatio("go.gc_cpu_pct", "%", plain.cost.gc, plain.cost.busy, 100, plain.units)

	// core/ghost and hyp: boots.
	boot, attach := median(millis(ps.boot)), median(millis(ps.attach))
	b.report("hyp.boot_ms", "ms", boot, len(ps.boot))
	b.report("ghost.attach_ms", "ms", attach, len(ps.attach))
	b.reportRatio("ghost.boot_slowdown", "x", boot+attach, boot, 1, len(ps.attach))
	b.reportRatio("ghost.slowdown", "x", float64(ps.on.wall), float64(ps.bare.wall), 1, ps.pairs)

	// hyp/arch/pgtable.
	b.report("hyp.trap_self_us", "us", h.trapSelf.meanMicros(), int(h.trapSelf.n.Load()))
	b.reportRatio("hyp.bare_op_us", "us", float64(ps.bare.wall)/1e3, ops, 1, ps.pairs)
	perOp("hyp.traps_per_op", "hyp_traps_total")
	tlbHits := float64(cd["tlb_hits_total"])
	b.reportRatio("tlb.hit_pct", "%", tlbHits, tlbHits+float64(cd["tlb_misses_total"]), 100, plain.units)
	perOp("tlb.invalidations_per_op", "tlb_invalidations_total")
	perOp("pgtable.walks_per_op", "pgtable_walks_total")
	perOp("pgtable.table_pages_per_op", "pgtable_table_pages_allocated_total")

	// campaign harness, from the engine's spans.
	base := float64(spans.base)
	b.reportRatio("campaign.exec_ms", "ms", base/1e6, float64(spans.execs), 1, spans.execs)
	for _, ph := range []string{"restore", "run", "corpus", "replay", "sched"} {
		b.report("campaign."+ph+"_pct", "%", share(float64(spans.phase["exec."+ph]), base), spans.execs)
	}
	b.reportRatio("hyp.trap_ms_per_exec", "ms", float64(spans.trap)/1e6, float64(spans.execs), 1, spans.execs)
	b.reportRatio("ghost.check_ms_per_exec", "ms", float64(spans.check)/1e6, float64(spans.execs), 1, spans.execs)
	var parentHits, dirty, fallbacks, execs int64
	for _, r := range plain.reps {
		parentHits += r.SnapshotParentHits
		dirty += r.SnapshotDirtyFrames
		fallbacks += r.SnapshotFallbacks
		execs += r.Execs
	}
	b.report("campaign.parent_hit_pct", "%", share(float64(parentHits), float64(execs)), len(plain.reps))
	b.report("campaign.dirty_frames_per_exec", "count", per(float64(dirty), float64(execs)), len(plain.reps))
	b.report("campaign.fallbacks", "count", float64(fallbacks), len(plain.reps))

	// Per-layer self time: each layer's spans minus their children, as
	// a share of the root spans. The shares partition the roots, so
	// their sum past 100% means the accounting double-counts.
	var total float64
	for l := 0; l < nrLayers; l++ {
		v := share(float64(spans.self[l]), base)
		total += v
		b.report("self."+layerNames[l]+"_pct", "%", v, spans.execs)
	}
	b.report("self.total_pct", "%", total, spans.execs)
	if total > 100+1e-6 {
		b.check(fmt.Errorf("per-layer self times sum to %.3f%% of the root spans", total))
	}
	b.report("trace.spans_dropped", "count", float64(spans.dropped), traced.units)
	if spans.dropped > 0 {
		b.check(fmt.Errorf("%d spans dropped: the tracer ring is too small", spans.dropped))
	}

	// coverage/randtest guard counts (exact at a fixed seed).
	for _, g := range campaignCounts {
		b.report(g, "count", plain.guard[g], plain.units)
	}

	// sched.
	b.reportRatio("sched.preemptions_per_op", "count", float64(ss.preemptions), float64(ss.ops), 1, ss.replays)
	b.reportRatio("sched.ns_per_preemption", "ns", float64(ss.sch-ss.plain), float64(ss.preemptions), 1, ss.replays)
	b.reportRatio("sched.parked_ms_per_replay", "ms", float64(ss.parkedNS)/1e6, float64(ss.replays), 1, ss.replays)
	b.reportRatio("sched.slowdown", "x", float64(ss.sch), float64(ss.plain), 1, ss.replays)
	b.report("sched.abandoned", "count", float64(ss.abandoned), ss.replays)

	// Tracing's own cost, and whether the hook timer accounts for the
	// oracle: bare replay plus hook time against the oracle-on wall.
	untracedRate := float64(plain.execs) / plain.cost.cpu.Seconds()
	tracedRate := float64(traced.execs) / traced.cost.cpu.Seconds()
	b.reportRatio("trace.overhead_pct", "%", untracedRate-tracedRate, tracedRate, 100, traced.units)
	gap := share(float64(ps.on.wall-ps.bare.wall-ps.hooks), float64(ps.on.wall))
	b.report("trace.attribution_gap_pct", "%", gap, ps.pairs)
	if per(ops, float64(ps.pairs)) >= attributionMinOps && (gap > attributionTolPct || gap < -attributionTolPct) {
		b.check(fmt.Errorf("bare replay plus hook time leaves %.1f%% of the oracle-on wall unexplained (tolerance %d%%)",
			gap, attributionTolPct))
	}
}

// reportShrink reports the shrinker's rows from the shrink leg: exact
// counts at a fixed seed, then what a shrink replay costs and how much
// of it is booting. A workload without a shrink leg (sh nil) reports 0.
func (b *bench) reportShrink(sh *shrinkStats) {
	if sh == nil {
		for _, m := range []struct{ name, unit string }{
			{"shrink.bugs", "count"}, {"shrink.detect_replays", "count"},
			{"campaign.shrink_replays_per_bug", "count"}, {"shrink.repro_ops", "count"},
			{"campaign.shrink_ms_per_replay", "ms"}, {"shrink.boot_pct", "%"},
		} {
			b.report(m.name, m.unit, 0, 0)
		}
		return
	}
	b.report("shrink.bugs", "count", float64(sh.shrinks), sh.shrinks)
	b.report("shrink.detect_replays", "count", float64(sh.detectReplays), sh.shrinks)
	b.reportRatio("campaign.shrink_replays_per_bug", "count", float64(sh.replays), float64(sh.shrinks), 1, sh.shrinks)
	b.report("shrink.repro_ops", "count", float64(sh.minOps), sh.shrinks)
	b.reportRatio("campaign.shrink_ms_per_replay", "ms", float64(sh.wall)/1e6, float64(sh.replays), 1, sh.replays)
	b.reportRatio("shrink.boot_pct", "%", float64(sh.factory), float64(sh.wall), 100, sh.replays)
}

// campaignCounts are counts a performance change must leave equal at a
// fixed seed; a workload without campaigns reports 0. huntCounts are
// the same for the hunt workload's findings.
var (
	campaignCounts = []string{
		"coverage.impl_covered", "coverage.spec_covered",
		"campaign.novel_runs", "campaign.corpus_size",
	}
	huntCounts = []string{"hunt.bugs_detected", "hunt.detect_execs", "hunt.repro_ops"}
)
