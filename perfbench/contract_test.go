package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// TestOutputMatchesBenchmarkJSON runs every workload BENCHMARK.json
// lists, briefly, untraced and traced, and checks that the last output
// line carries exactly the metrics the file declares, with their units.
func TestOutputMatchesBenchmarkJSON(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metricDecl struct{ Name, Unit string }
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricDecl `json:"end_to_end"`
		PerLayer  []metricDecl `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	units := func(decls []metricDecl) map[string]string {
		m := map[string]string{}
		for _, d := range decls {
			m[d.Name] = d.Unit
		}
		return m
	}
	for _, w := range spec.Workloads {
		for mode, want := range map[string]map[string]string{"0": units(spec.EndToEnd), "1": units(spec.PerLayer)} {
			var out, errs bytes.Buffer
			code := run([]string{"--workload", w.Name, "--seed", "3", "--seconds", "1", "--trace", mode}, &out, &errs)
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res map[string]json.RawMessage
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s --trace %s: last line is not JSON: %v", w.Name, mode, err)
			}
			var keys []string
			for k := range res {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			if !reflect.DeepEqual(keys, []string{"attempted", "correct", "failed", "metrics"}) {
				t.Errorf("%s --trace %s: result keys %v", w.Name, mode, keys)
			}
			var r result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
				t.Fatal(err)
			}
			if code != 0 || !r.Correct {
				t.Errorf("%s --trace %s: exit %d, correct %v, %d of %d checks failed:\n%s",
					w.Name, mode, code, r.Correct, r.Failed, r.Attempted, errs.String())
			}
			got := map[string]string{}
			for name, m := range r.Metrics {
				got[name] = m.Unit
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s --trace %s: metrics %v, BENCHMARK.json declares %v", w.Name, mode, got, want)
			}
		}
	}
}
