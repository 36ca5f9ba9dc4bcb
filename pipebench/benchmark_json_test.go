package main

import (
	"encoding/json"
	"os"
	"testing"
)

// BENCHMARK.json at the repository root declares what this program
// prints; the two must agree name for name.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	for _, w := range b.Workloads {
		got, ok := findWorkload(w.Name)
		if !ok || got.Why != w.Why {
			t.Errorf("workload %q: declared why %q, program has %q (found=%v)", w.Name, w.Why, got.Why, ok)
		}
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics declared, program reports %d", len(b.EndToEnd), len(endToEnd))
	}
	for i, m := range b.EndToEnd {
		if d := endToEnd[i]; m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end %d: declared %+v, program %+v", i, m, d)
		}
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics declared, program reports %d", len(b.PerLayer), len(perLayer))
	}
	for i, m := range b.PerLayer {
		if d := perLayer[i]; m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("per-layer %d: declared %+v, program %+v", i, m, d)
		}
	}
}
