// Command perfbench is the repository's benchmark: it runs one of four
// seeded workloads against the shipped entry points (campaign.Run,
// campaign.FaultSweep, randtest.Replay, randtest.ReplayScheduled),
// checks that their outputs are correct, and prints every metric by
// name with its unit and sample count, then one JSON line.
//
//	perfbench --workload fuzz|replay|schedfuzz|hunt --seed N --seconds S --trace 0|1
//
// With --trace 0 it measures the end-to-end metrics with nothing
// attached beyond what the program itself runs. With --trace 1 it
// splits the cost across layers from outside the program: a hook timer
// wrapped around the ghost recorder, timers around boots and replays,
// deltas of the program's telemetry counters, and the spans the engine
// emits when handed a tracer. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// bench is one benchmark run: its settings, the output checks made so
// far, and the metrics reported.
type bench struct {
	seed    int64
	seconds time.Duration
	traced  bool
	out     io.Writer // human-readable report
	errs    io.Writer // check failures

	attempted, failed int64
	names             []string
	metrics           map[string]metric
	samples           map[string]int
	// counts holds each unit key's counts as first seen in the run; a
	// later unit with the same key must repeat them exactly.
	counts map[string][]namedCount
}

// check counts one output check; a non-nil err is a failure.
func (b *bench) check(err error) {
	b.attempted++
	if err != nil {
		b.failed++
		fmt.Fprintf(b.errs, "FAIL: %v\n", err)
	}
}

// report records a metric with the number of samples behind it. A value
// that is not a number (a percentile of no samples) fails the run.
func (b *bench) report(name, unit string, v float64, samples int) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		b.check(fmt.Errorf("%s: nothing was measured", name))
		v = 0
	}
	if _, dup := b.metrics[name]; !dup {
		b.names = append(b.names, name)
	}
	b.metrics[name] = metric{Value: v, Unit: unit}
	b.samples[name] = samples
}

// reportRatio reports num/base, failing the run when the base is not a
// measured positive value.
func (b *bench) reportRatio(name, unit string, num, base, scale float64, samples int) {
	r, err := ratio(num, base)
	if err != nil {
		b.check(fmt.Errorf("%s: %w", name, err))
	}
	b.report(name, unit, r*scale, samples)
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: fuzz, replay, schedfuzz or hunt")
	seed := fs.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fs.Int("seconds", 10, "seconds to measure for")
	traced := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	mk, ok := workloads[*name]
	if !ok || *seconds < 1 || (*traced != 0 && *traced != 1) {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintf(stderr, "perfbench: need --workload one of %v, --seconds >= 1, --trace 0 or 1\n", names)
		return 2
	}
	b := &bench{
		seed: *seed, seconds: time.Duration(*seconds) * time.Second, traced: *traced == 1,
		out: stdout, errs: stderr,
		metrics: map[string]metric{}, samples: map[string]int{}, counts: map[string][]namedCount{},
	}
	if b.traced {
		b.runTraced(mk)
	} else {
		b.runEndToEnd(mk(*seed))
	}

	failedPct := 0.0
	if b.attempted > 0 {
		failedPct = 100 * float64(b.failed) / float64(b.attempted)
	}
	fmt.Fprintf(stdout, "workload %s seed %d: %d checks, %d failed (%.2f%%)\n",
		*name, *seed, b.attempted, b.failed, failedPct)
	for _, n := range b.names {
		m := b.metrics[n]
		fmt.Fprintf(stdout, "  %-40s %14.6g %-6s n=%d\n", n, m.Value, m.Unit, b.samples[n])
	}
	res := result{Correct: b.failed == 0 && b.attempted > 0, Attempted: b.attempted, Failed: b.failed, Metrics: b.metrics}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}
