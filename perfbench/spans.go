package main

import (
	"sort"
	"strings"
	"time"

	"ghostspec/internal/telemetry/trace"
)

// Layer groups: the implementation (hyp/arch/pgtable), the oracle
// (core/ghost), the harness (campaign/randtest/coverage) and the
// scheduler.
const (
	layerHarness = iota
	layerImpl
	layerOracle
	layerSched
	nrLayers
)

var layerNames = [nrLayers]string{"harness", "impl", "oracle", "sched"}

// layerOf maps a span name to the layer that emits it.
func layerOf(name string) int {
	switch {
	case strings.HasPrefix(name, "hyp.trap:"), strings.HasPrefix(name, "pgtable."), strings.HasPrefix(name, "tlb."):
		return layerImpl
	case strings.HasPrefix(name, "ghost."):
		return layerOracle
	case name == "exec.sched", name == "randtest.replay-sched", strings.HasPrefix(name, "sched."):
		return layerSched
	}
	return layerHarness
}

// emitted reports spans recorded with Tracer.Emit from a goroutine that
// does not own the lane: waits, not work, and outside the nesting.
func emitted(name string) bool {
	return name == "sched.preempt" || strings.HasPrefix(name, "lock.wait:")
}

// spanSummary is the per-layer split of one traced interval.
type spanSummary struct {
	// base is the summed duration of root spans: every exec (or trace
	// replay) plus the once-per-campaign root boots.
	base  time.Duration
	execs int // root "exec" or "randtest.replay" spans
	self  [nrLayers]time.Duration
	// phase holds the inclusive time of each direct child of an exec
	// span, keyed by name (exec.restore, exec.run, ...).
	phase   map[string]time.Duration
	trap    time.Duration // hyp.trap:* spans outside scheduled replays
	check   time.Duration // ghost.check spans outside scheduled replays
	dropped uint64
}

func (s *spanSummary) merge(o spanSummary) {
	s.base += o.base
	s.execs += o.execs
	for i := range s.self {
		s.self[i] += o.self[i]
	}
	if s.phase == nil {
		s.phase = map[string]time.Duration{}
	}
	for k, v := range o.phase {
		s.phase[k] += v
	}
	s.trap += o.trap
	s.check += o.check
	s.dropped += o.dropped
}

// summarize computes self times by interval nesting on each lane: a
// span's self time is its duration minus the part of it that its child
// spans cover. In a scheduled replay the vCPU goroutines take turns on
// one lane, so the spans inside it interleave instead of nesting, and
// the scheduler's own work (parking, handoffs) has no span at all: the
// whole scheduled replay is booked to the scheduler layer and nothing
// inside it is looked at. sched.slowdown splits it from outside.
func summarize(tr *trace.Tracer) spanSummary {
	out := spanSummary{phase: map[string]time.Duration{}, dropped: tr.Dropped()}
	byLane := map[int][]trace.Span{}
	for _, sp := range tr.Spans() {
		name := sp.NameString()
		if emitted(name) {
			continue
		}
		byLane[sp.Lane] = append(byLane[sp.Lane], sp)
		if sp.ParentString() == "exec" {
			out.phase[name] += sp.Dur
		}
	}
	for _, spans := range byLane {
		sort.SliceStable(spans, func(i, j int) bool {
			if spans[i].Start != spans[j].Start {
				return spans[i].Start < spans[j].Start
			}
			return spans[i].Depth < spans[j].Depth
		})
		type frame struct {
			end      time.Duration
			dur      time.Duration
			children time.Duration
			layer    int
		}
		var stack []frame
		pop := func() {
			f := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			out.self[f.layer] += f.dur - f.children
		}
		var schedEnd time.Duration // end of the scheduled replay being skipped
		for _, sp := range spans {
			if sp.Start < schedEnd {
				continue
			}
			for len(stack) > 0 && stack[len(stack)-1].end <= sp.Start {
				pop()
			}
			name := sp.NameString()
			f := frame{end: sp.Start + sp.Dur, layer: layerOf(name)}
			if len(stack) > 0 {
				parent := &stack[len(stack)-1]
				if f.end > parent.end {
					f.end = parent.end
				}
				f.dur = f.end - sp.Start
				parent.children += f.dur
			} else {
				f.dur = sp.Dur
				out.base += sp.Dur
				if name == "exec" || name == "randtest.replay" {
					out.execs++
				}
			}
			switch {
			case name == "randtest.replay-sched":
				schedEnd = f.end
			case strings.HasPrefix(name, "hyp.trap:"):
				out.trap += f.dur
			case name == "ghost.check":
				out.check += f.dur
			}
			stack = append(stack, f)
		}
		for len(stack) > 0 {
			pop()
		}
	}
	return out
}
