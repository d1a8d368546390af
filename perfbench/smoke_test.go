package main

import (
	"encoding/json"
	"io"
	"os"
	"testing"
)

// TestSmoke runs every workload in smoke mode, untraced and traced, and
// checks that the run is correct and reports exactly the metrics, with
// the units, that BENCHMARK.json declares for that mode.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke runs take about a minute")
	}
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type decl struct{ Name, Unit string }
	var bench struct {
		Workloads []struct{ Name string }
		EndToEnd  []decl `json:"end_to_end"`
		PerLayer  []decl `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bench); err != nil {
		t.Fatal(err)
	}
	for _, w := range bench.Workloads {
		s, err := specByName(w.Name)
		if err != nil {
			t.Fatal(err)
		}
		for traced, want := range [][]decl{bench.EndToEnd, bench.PerLayer} {
			res, err := run(smokeSpec(s), 7, 0, traced == 1, io.Discard)
			if err != nil {
				t.Fatalf("%s trace=%d: %v", w.Name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%d: correct=%v attempted=%d failed=%d", w.Name, traced, res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%d: %d metrics, BENCHMARK.json declares %d", w.Name, traced, len(res.Metrics), len(want))
			}
			for _, d := range want {
				m, ok := res.Metrics[d.Name]
				if !ok || m.Unit != d.Unit {
					t.Errorf("%s trace=%d: metric %s = %+v (present %v), want unit %s", w.Name, traced, d.Name, m, ok, d.Unit)
				}
			}
		}
	}
}

// TestSeededInputs checks that inputs are a function of the seed and
// keep each program's canonical length.
func TestSeededInputs(t *testing.T) {
	for name, build := range builders {
		w := build()
		a, b, c := seededInput(w, 1), seededInput(w, 1), seededInput(w, 2)
		if len(a) != len(w.Input) || string(a) != string(b) {
			t.Errorf("%s: input not a deterministic function of the seed", name)
		}
		canonical := name == "libpng-1.6.34" || name == "libjpeg-turbo-1.5.2" || name == "chakracore-1.10"
		if canonical != (string(a) == string(c)) {
			t.Errorf("%s: seeds 1 and 2 give equal inputs = %v", name, string(a) == string(c))
		}
	}
}
