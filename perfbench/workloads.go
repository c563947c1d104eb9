package main

import (
	"fmt"
	"hash/fnv"
	"runtime"

	"ghostspec/internal/campaign"
	"ghostspec/internal/faults"
	"ghostspec/internal/hyp"
	"ghostspec/internal/proxy"
	"ghostspec/internal/randtest"
	"ghostspec/internal/telemetry/trace"
)

// steps is the generator length of one execution: ghost-fuzz's default.
const steps = 400

// Trace counts: the replay workload's inputs, the seeded traces a
// campaign workload's check set holds, and how many of them each
// campaign unit replays.
const (
	replayTraces   = 64
	campaignTraces = 64
	unitPairs      = 24
)

// Campaign units cycle through campaignSeeds campaign seeds derived
// from the workload seed, and a traced unit records at most
// campaignSpans spans.
const (
	campaignSeeds = 8
	campaignSpans = 1 << 19
)

// workloads builds each workload from its seed. Why each exists is in
// README.md.
var workloads = map[string]func(seed int64) workload{
	// fuzz is ghost-fuzz's default campaign on one worker, with the
	// default corpus cap and conformance cadence: a unit is a 256-exec
	// campaign, which runs the restore-conformance differ once.
	"fuzz": func(seed int64) workload {
		return &campaignLoad{
			seed: seed,
			cfg:  campaign.Config{Workers: 1, StepsPerRun: steps, NrCPUs: 4, MaxExecs: 256},
		}
	},
	// schedfuzz re-executes every clean run under a seeded schedule on
	// two vCPUs. Its execs are ~15x dearer, so a unit is 4 execs with
	// the conformance differ armed once, not at the default cadence.
	"schedfuzz": func(seed int64) workload {
		return &campaignLoad{
			seed: seed,
			cfg: campaign.Config{Workers: 1, StepsPerRun: steps, NrCPUs: 2, SchedFuzz: true,
				MaxExecs: 4, ConformanceEvery: 4},
		}
	},
	"replay": func(seed int64) workload { return &replayLoad{seed: seed} },
	"hunt":   func(seed int64) workload { return &huntLoad{seed: seed} },
}

// genTraces records n model-guided randtest traces of steps steps on
// bare boots of nrCPUs vCPUs, one generator seed per trace derived from
// seed, and returns them with a digest of their encoding.
func genTraces(seed int64, n, nrCPUs int) ([]checkTrace, string, error) {
	out := make([]checkTrace, 0, n)
	h := fnv.New64a()
	for i := 0; i < n; i++ {
		hv, err := hyp.New(hyp.Config{NrCPUs: nrCPUs})
		if err != nil {
			return nil, "", fmt.Errorf("boot: %w", err)
		}
		t := randtest.New(proxy.New(hv), nil, randtest.WorkerSeed(seed, i), true)
		t.Trace = &randtest.Trace{}
		t.Run(steps)
		h.Write(randtest.EncodeTrace(t.Trace))
		out = append(out, checkTrace{tr: t.Trace, boot: bootCfg{nrCPUs: nrCPUs}})
	}
	return out, fmt.Sprintf("%x", h.Sum64()), nil
}

// campaignLoad runs campaign.Run on the clean build. A unit is one whole
// campaign, a check that every trace it put in its corpus replays clean,
// and unitPairs replay pairs from the check set, traces generated from
// the seed. Units cycle through campaign seeds derived from the workload
// seed: how fast a campaign runs depends on its seed, and a run's
// figures should not rest on one seed's luck. A unit that repeats a
// seed must repeat every count exactly.
type campaignLoad struct {
	seed  int64
	cfg   campaign.Config
	units int
	gen   []checkTrace
	next  int
}

// campaignSeed is the seed of the campaign unit n runs.
func (c *campaignLoad) campaignSeed(n int) int64 {
	return randtest.WorkerSeed(c.seed, n%campaignSeeds)
}

func (c *campaignLoad) spansPerUnit() int { return campaignSpans }

func (c *campaignLoad) checkSet() []checkTrace { return c.gen }

// setup records the check traces. Each campaign boots its own probe
// system, so campaign start-up is part of every unit, not of set-up.
func (c *campaignLoad) setup() (string, error) {
	var digest string
	var err error
	c.gen, digest, err = genTraces(c.seed, campaignTraces, c.cfg.NrCPUs)
	return digest, err
}

func (c *campaignLoad) unit(tr *trace.Tracer, check func(error)) (unitStats, error) {
	cfg := c.cfg
	cfg.Seed = c.campaignSeed(c.units)
	c.units++
	cfg.Tracer = tr
	var corpus []*randtest.Trace
	cfg.OnCorpus = func(t *randtest.Trace, _ float64) { corpus = append(corpus, t) }
	var rep *campaign.Report
	var err error
	var cd counterDelta
	c0 := measureWork(&cd, func() { rep, err = campaign.Run(cfg) })
	if err != nil {
		return unitStats{}, fmt.Errorf("campaign (seed %d): %w", cfg.Seed, err)
	}
	if n := len(rep.Findings); n > 0 {
		f := rep.Findings[0]
		check(fmt.Errorf("campaign (seed %d) found %d bugs on the clean build; first at exec %d: %v %s",
			cfg.Seed, n, f.Exec, f.Failures, f.SchedErr))
	} else {
		check(nil)
	}
	for _, t := range corpus {
		check(replayPair(&pairStats{}, checkTrace{tr: t, boot: bootCfg{nrCPUs: cfg.NrCPUs}}, nil, false))
	}
	// The pairs start without the campaign's garbage still to collect,
	// which would otherwise be charged to them as GC assists.
	runtime.GC()
	ps := &pairStats{}
	for i := 0; i < unitPairs; i++ {
		check(replayPair(ps, c.gen[c.next%len(c.gen)], nil, false))
		c.next++
	}
	cov := rep.Coverage
	return unitStats{
		execs:    rep.Execs,
		cost:     c0,
		counters: cd,
		pairs:    ps,
		key:      fmt.Sprint(cfg.Seed),
		reps:     []*campaign.Report{rep},
		counts: []namedCount{
			{"execs", rep.Execs}, {"novel_runs", rep.NovelRuns}, {"corpus_size", int64(rep.CorpusSize)},
			{"impl_covered", int64(cov.ImplCovered)}, {"spec_covered", int64(cov.SpecCovered)},
			{"snapshot_restores", rep.SnapshotRestores}, {"snapshot_parent_hits", rep.SnapshotParentHits},
			{"snapshot_dirty_frames", rep.SnapshotDirtyFrames}, {"snapshot_fallbacks", rep.SnapshotFallbacks},
		},
		guard: map[string]float64{
			"coverage.impl_covered": float64(cov.ImplCovered),
			"coverage.spec_covered": float64(cov.SpecCovered),
			"campaign.novel_runs":   float64(rep.NovelRuns),
			"campaign.corpus_size":  float64(rep.CorpusSize),
		},
	}, nil
}

// replayLoad replays randtest traces generated from the seed, each once
// on a fresh bare boot and once on a fresh boot with the oracle
// attached. A unit is one pass over all of them.
type replayLoad struct {
	seed   int64
	traces []checkTrace
}

func (r *replayLoad) spansPerUnit() int { return 1 << 18 }

func (r *replayLoad) checkSet() []checkTrace { return r.traces }

// setup generates the traces.
func (r *replayLoad) setup() (string, error) {
	var digest string
	var err error
	r.traces, digest, err = genTraces(r.seed, replayTraces, 4)
	return digest, err
}

func (r *replayLoad) failing() ([]failingTrace, int, error) { return failingFromCheckSet(r.traces) }

func (r *replayLoad) unit(tr *trace.Tracer, check func(error)) (unitStats, error) {
	ps := &pairStats{}
	var cd counterDelta
	c := measureWork(&cd, func() {
		for _, ct := range r.traces {
			check(replayPair(ps, ct, tr, false))
		}
	})
	return unitStats{execs: int64(ps.pairs), cost: c, counters: cd, pairs: ps}, nil
}

// huntSeeds is how many campaign seeds, derived from the workload seed,
// the hunt workload's sweeps cycle through. How soon a bug is found and
// how long its repro is depend on the seed; cycling several keeps one
// seed's luck from setting the run's figures.
const huntSeeds = 4

// huntLoad runs campaign.FaultSweep over faults.All(), one bug at a
// time so each bug's wall time from campaign start to minimized repro
// is its own sample. A unit is one sweep.
type huntLoad struct {
	seed     int64
	sweeps   int
	findings map[faults.Bug]campaign.Finding // from the first sweep
	repros   []checkTrace
}

func (h *huntLoad) spansPerUnit() int { return 1 << 20 }

func (h *huntLoad) checkSet() []checkTrace { return h.repros }

// setup boots one oracle-attached system per bug, the boot every
// per-bug campaign starts with.
func (h *huntLoad) setup() (string, error) {
	d := fnv.New64a()
	for _, bug := range faults.All() {
		s, err := bootSystem(bootCfg{nrCPUs: 4, bug: bug}, nil, true, false)
		if err != nil {
			return "", err
		}
		fmt.Fprintf(d, "%s:%v;", bug, s.alarmKinds())
	}
	return fmt.Sprintf("%x", d.Sum64()), nil
}

func (h *huntLoad) base(seed int64, tr *trace.Tracer, found *campaign.Finding) campaign.Config {
	return campaign.Config{
		Workers: 1, StepsPerRun: steps, Seed: seed, NrCPUs: 4,
		MaxExecs: 400, // ghost-fuzz -matrix's per-bug budget
		Tracer:   tr,
		OnFinding: func(f campaign.Finding) {
			*found = f
		},
	}
}

func (h *huntLoad) unit(tr *trace.Tracer, check func(error)) (unitStats, error) {
	first := h.findings == nil
	if first {
		h.findings = map[faults.Bug]campaign.Finding{}
	}
	seed := randtest.WorkerSeed(h.seed, h.sweeps%huntSeeds)
	h.sweeps++
	u := unitStats{pairs: &pairStats{}, guard: map[string]float64{}, key: fmt.Sprint(seed)}
	var detected, execs, minOps int64
	for _, bug := range faults.All() {
		var f campaign.Finding
		var m campaign.MatrixEntry
		c := measureWork(&u.counters, func() { m = campaign.FaultSweep(h.base(seed, tr, &f), []faults.Bug{bug}, nil)[0] })
		u.cost.add(c)
		u.latency = append(u.latency, c.cpu)
		u.execs += m.Execs
		u.counts = append(u.counts, namedCount{string(bug) + ".execs", m.Execs}, namedCount{string(bug) + ".min_ops", int64(m.MinOps)})
		switch {
		case m.Err != nil:
			check(fmt.Errorf("%s: campaign error: %w", bug, m.Err))
			continue
		case !m.Detected || f.Min == nil:
			check(fmt.Errorf("%s: not detected within %d execs (campaign seed %d)", bug, m.Execs, seed))
			continue
		}
		detected++
		execs += m.Execs
		minOps += int64(f.Min.Len())
		ct := checkTrace{tr: f.Min, boot: bootCfg{nrCPUs: 4, bug: bug}, wantAlarm: true}
		check(replayPair(u.pairs, ct, nil, false))
		if first {
			h.findings[bug] = f
			h.repros = append(h.repros, ct)
		}
	}
	u.guard["hunt.bugs_detected"] = float64(detected)
	u.guard["hunt.detect_execs"] = float64(execs)
	u.guard["hunt.repro_ops"] = float64(minOps)
	return u, nil
}

// failing gives the shrink leg each first-sweep finding's full trace.
// The engine shrank the same trace by rewinding a snapshot instead of
// booting, so the shrink leg must arrive at the same repro.
func (h *huntLoad) failing() ([]failingTrace, int, error) {
	var out []failingTrace
	for _, bug := range faults.All() {
		if f, ok := h.findings[bug]; ok {
			ct := checkTrace{tr: f.Trace, boot: bootCfg{nrCPUs: 4, bug: bug}, wantAlarm: true}
			out = append(out, failingTrace{ct: ct, wantOps: f.Min.Len()})
		}
	}
	return out, 0, nil
}
