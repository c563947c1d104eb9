package main

import (
	"reflect"
	"testing"

	"ghostspec/internal/arch"
	"ghostspec/internal/campaign"
	"ghostspec/internal/faults"
	"ghostspec/internal/hyp"
	"ghostspec/internal/proxy"
	"ghostspec/internal/randtest"
)

// replayBoth replays tr on two fresh boots of c with the oracle
// attached, the second with the hook timer wrapped around it, and
// checks that the timer changed nothing: same alarm kinds, same memory.
func replayBoth(t *testing.T, c bootCfg, tr *randtest.Trace) []string {
	t.Helper()
	plain, err := bootSystem(c, nil, true, false)
	if err != nil {
		t.Fatal(err)
	}
	timed, err := bootSystem(c, nil, true, true)
	if err != nil {
		t.Fatal(err)
	}
	plain.replayOn(tr)
	timed.replayOn(tr)

	pk, tk := plain.alarmKinds(), timed.alarmKinds()
	if !reflect.DeepEqual(pk, tk) {
		t.Errorf("%s: alarms %v without the hook timer, %v with it", c.bug, pk, tk)
	}
	if diff := arch.DiffMemory(plain.d.HV.Mem, timed.d.HV.Mem, 3); len(diff) > 0 {
		t.Errorf("%s: memory differs with the hook timer: %v", c.bug, diff)
	}
	if len(pk) == 0 && timed.shim.exit.n.Load() == 0 && tr.Len() > 0 {
		t.Errorf("%s: the hook timer saw no traps; it was not installed", c.bug)
	}
	var kinds []string
	for _, k := range tk {
		kinds = append(kinds, k.String())
	}
	return kinds
}

// TestHookTimerTransparent: the traced run measures the same program.
// A clean trace and a failing trace for every injectable bug replay
// with identical alarms and memory with and without the hook timer.
func TestHookTimerTransparent(t *testing.T) {
	hv, err := hyp.New(hyp.Config{NrCPUs: 4})
	if err != nil {
		t.Fatal(err)
	}
	gen := randtest.New(proxy.New(hv), nil, 7, true)
	gen.Trace = &randtest.Trace{}
	gen.Run(steps)
	if kinds := replayBoth(t, bootCfg{nrCPUs: 4}, gen.Trace); len(kinds) != 0 {
		t.Errorf("clean trace raised %v", kinds)
	}

	for _, bug := range faults.All() {
		rep, err := campaign.Run(campaign.Config{
			Workers: 1, StepsPerRun: steps, Seed: 1, Bugs: []faults.Bug{bug},
			BigMemory: faults.ClassOf(bug) == faults.ClassBootLayout,
			MaxExecs:  400, MaxFindings: 1, ShrinkReplays: 1,
		})
		if err != nil {
			t.Fatalf("%s: %v", bug, err)
		}
		if len(rep.Findings) == 0 {
			t.Fatalf("%s: no failing trace found", bug)
		}
		if kinds := replayBoth(t, bootCfg{nrCPUs: 4, bug: bug}, rep.Findings[0].Trace); len(kinds) == 0 {
			t.Errorf("%s: the failing trace raised no alarm on replay", bug)
		}
	}
}
