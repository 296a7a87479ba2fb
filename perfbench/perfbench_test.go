package main

import (
	"encoding/json"
	"io"
	"os"
	"testing"
)

// TestOracles feeds every oracle corrupted outputs; each must be
// rejected while the correct outputs pass.
func TestOracles(t *testing.T) {
	if err := oracleSelftest(io.Discard); err != nil {
		t.Fatal(err)
	}
}

// TestMetricsMatchBenchmarkJSON keeps the metric names and units the
// binary prints in step with BENCHMARK.json.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got []metricDef, want []struct{ Name, Unit string }) {
		if len(got) != len(want) {
			t.Fatalf("%s: binary has %d metrics, BENCHMARK.json %d", what, len(got), len(want))
		}
		for i := range got {
			if got[i].name != want[i].Name || got[i].unit != want[i].Unit {
				t.Errorf("%s %d: binary %s/%s, BENCHMARK.json %s/%s", what, i, got[i].name, got[i].unit, want[i].Name, want[i].Unit)
			}
		}
	}
	same("end_to_end", endToEndMetrics, spec.EndToEnd)
	same("per_layer", perLayerMetrics, spec.PerLayer)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, binary %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i] {
			t.Errorf("workload %d: BENCHMARK.json %q, binary %q", i, w.Name, workloads[i])
		}
	}
}

// TestShortRuns runs every workload end to end for half a second,
// untraced and traced, and checks every operation came out correct.
func TestShortRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload; skipped in -short")
	}
	if err := runSelftest(io.Discard); err != nil {
		t.Fatal(err)
	}
}
