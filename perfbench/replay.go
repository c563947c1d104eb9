package main

import (
	"fmt"
	"time"

	"ghostspec/internal/arch"
	"ghostspec/internal/core/ghost"
	"ghostspec/internal/faults"
	"ghostspec/internal/hyp"
	"ghostspec/internal/proxy"
	"ghostspec/internal/randtest"
	"ghostspec/internal/sched"
	"ghostspec/internal/telemetry"
	"ghostspec/internal/telemetry/trace"
)

// bigMemoryLayout is the physical map the campaign engine boots for the
// boot-layout bug class; a repro of such a bug only fails on it.
var bigMemoryLayout = arch.MemLayout{RAMStart: 1 << 30, RAMSize: 4 << 30, MMIOSize: 16 << 20}

// bootCfg is what a replay needs to boot the system a trace was
// recorded on.
type bootCfg struct {
	nrCPUs int
	bug    faults.Bug // "" on the clean build
}

func (c bootCfg) hypConfig(tr *trace.Tracer) hyp.Config {
	cfg := hyp.Config{NrCPUs: c.nrCPUs, Tracer: tr}
	if c.bug != "" {
		cfg.Inj = faults.NewInjector(c.bug)
		if faults.ClassOf(c.bug) == faults.ClassBootLayout {
			cfg.Layout = bigMemoryLayout
		}
	}
	return cfg
}

// system is one freshly booted hypervisor with the timings of its boot.
type system struct {
	d      *proxy.Driver
	rec    *ghost.Recorder // nil on a bare boot
	shim   *hookTimer      // nil unless timed
	boot   time.Duration   // hyp.New
	attach time.Duration   // ghost.Attach
}

// bootSystem boots c; oracle attaches the ghost recorder, timed wraps
// it in the hook timer.
func bootSystem(c bootCfg, tr *trace.Tracer, oracle, timed bool) (*system, error) {
	t0 := time.Now()
	hv, err := hyp.New(c.hypConfig(tr))
	s := &system{boot: time.Since(t0)}
	if err != nil {
		return nil, fmt.Errorf("boot: %w", err)
	}
	if oracle {
		t1 := time.Now()
		s.rec = ghost.Attach(hv)
		s.attach = time.Since(t1)
		if timed {
			s.shim = newHookTimer(s.rec, hv.Globals().NrCPUs)
			hv.SetInstrumentation(s.shim)
		}
	}
	s.d = proxy.New(hv)
	return s, nil
}

// replayOn replays tr on s unless the oracle already alarmed at boot (a
// boot-layout defect), and returns what the replay cost.
func (s *system) replayOn(tr *randtest.Trace) cost {
	if s.rec != nil && len(s.rec.Failures()) > 0 {
		return cost{}
	}
	return measure(func() { randtest.Replay(s.d, tr) })
}

// alarmKinds lists the oracle's alarm kinds on s, in order.
func (s *system) alarmKinds() []ghost.FailureKind {
	var out []ghost.FailureKind
	for _, f := range s.rec.Failures() {
		out = append(out, f.Kind)
	}
	return out
}

// pairStats accumulates bare/oracle-on replay pairs.
type pairStats struct {
	pairs     int
	ops       int64
	bare, on  cost
	onCPU     []time.Duration // per oracle-on replay
	boot      []time.Duration // hyp.New, both legs
	attach    []time.Duration
	hooks     time.Duration
	hookTimer hookTimer // sums over timed pairs (inner unused)
	counters  counterDelta
}

// checkTrace is one trace the check leg replays, with the boot it needs
// and whether the oracle must alarm on it (a bug repro) or stay silent.
type checkTrace struct {
	tr        *randtest.Trace
	boot      bootCfg
	wantAlarm bool
}

// replayPair replays ct once on a fresh bare boot and once on a fresh
// boot with the oracle attached (timed when timed is set, traced when
// tr is non-nil), checks the outcome, and adds the timings to ps. The
// returned error is an output-check failure.
func replayPair(ps *pairStats, ct checkTrace, tr *trace.Tracer, timed bool) error {
	bare, err := bootSystem(ct.boot, nil, false, false)
	if err != nil {
		return err
	}
	bareT := bare.replayOn(ct.tr)

	on, err := bootSystem(ct.boot, tr, true, timed)
	if err != nil {
		return err
	}
	var before telemetry.Snap
	if timed {
		before = telemetry.Snapshot()
	}
	onT := on.replayOn(ct.tr)
	if timed {
		ps.counters.add(before, telemetry.Snapshot())
		ps.hooks += on.shim.hookTime()
		ps.hookTimer.merge(on.shim)
	}

	ps.pairs++
	ps.ops += int64(ct.tr.Len())
	ps.bare.add(bareT)
	ps.on.add(onT)
	ps.onCPU = append(ps.onCPU, onT.cpu)
	ps.boot = append(ps.boot, bare.boot, on.boot)
	ps.attach = append(ps.attach, on.attach)

	alarms := on.alarmKinds()
	switch {
	case ct.wantAlarm && len(alarms) == 0:
		return fmt.Errorf("repro of %s (%d ops) does not fail again on a fresh boot", ct.boot.bug, ct.tr.Len())
	case !ct.wantAlarm && len(alarms) > 0:
		return fmt.Errorf("oracle alarm %v replaying a clean %d-op trace", alarms, ct.tr.Len())
	}
	if diff := arch.DiffMemory(bare.d.HV.Mem, on.d.HV.Mem, 1); len(diff) > 0 {
		return fmt.Errorf("bare and oracle-on replays of a %d-op trace end in different memory: %s", ct.tr.Len(), diff[0])
	}
	return nil
}

// schedStats accumulates scheduled-vs-unscheduled replays of the same
// traces, both with the oracle attached.
type schedStats struct {
	replays     int
	ops         int64
	plain, sch  time.Duration
	preemptions uint64
	parkedNS    uint64
	abandoned   int
}

// schedPair replays ct unscheduled and then split across the system's
// vCPUs under a deterministic schedule seeded from seed.
func schedPair(ss *schedStats, ct checkTrace, seed uint64) error {
	plain, err := bootSystem(ct.boot, nil, true, false)
	if err != nil {
		return err
	}
	plainT := plain.replayOn(ct.tr).wall

	s, err := bootSystem(ct.boot, nil, true, false)
	if err != nil {
		return err
	}
	sc := sched.New(ct.boot.nrCPUs, sched.WithSeed(seed))
	before := telemetry.Snapshot()
	t0 := time.Now()
	runErr := randtest.ReplayScheduled(s.d, ct.tr, sc)
	schT := time.Since(t0)
	parked := counterDeltaOf(before, telemetry.Snapshot(), "sched_parked_ns")

	ss.replays++
	ss.ops += int64(ct.tr.Len())
	ss.plain += plainT
	ss.sch += schT
	ss.preemptions += sc.Preemptions()
	ss.parkedNS += parked
	if sc.Abandoned() {
		ss.abandoned++
		return fmt.Errorf("scheduled replay of a %d-op trace abandoned one-token scheduling", ct.tr.Len())
	}
	if runErr != nil {
		return fmt.Errorf("scheduled replay: %w", runErr)
	}
	if !ct.wantAlarm && len(s.rec.Failures()) > 0 {
		return fmt.Errorf("oracle alarm %v on a scheduled replay of a clean trace", s.alarmKinds())
	}
	return nil
}
