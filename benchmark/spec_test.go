package main

import (
	"encoding/json"
	"os"
	"testing"
)

// TestBenchmarkJSONMatchesCode keeps the repository's BENCHMARK.json and
// the metric and workload definitions the benchmark prints in step.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metricDef `json:"end_to_end"`
		PerLayer   []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the code %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json %q, code %q", i, w.Name, workloads[i].name)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters", w.Name, len(w.Why))
		}
	}
	for _, pair := range []struct {
		name       string
		json, code []metricDef
	}{{"end_to_end", spec.EndToEnd, endToEnd}, {"per_layer", spec.PerLayer, perLayer}} {
		if len(pair.json) != len(pair.code) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the code %d", pair.name, len(pair.json), len(pair.code))
			continue
		}
		for i := range pair.json {
			if pair.json[i] != pair.code[i] {
				t.Errorf("%s %d: BENCHMARK.json %+v, code %+v", pair.name, i, pair.json[i], pair.code[i])
			}
		}
	}
	if setup := metricByName(spec.EndToEnd, "setup_s"); setup == nil {
		t.Error("end_to_end has no setup_s")
	} else {
		for _, d := range spec.EndToEnd {
			if d.Bound > setup.Bound || d.Bound <= 0 || d.Bound > 0.25 {
				t.Errorf("%s bound %v: bounds lie in (0, 0.25] and setup_s has the largest", d.Name, d.Bound)
			}
		}
	}
	if spec.RunSeconds < 1 || spec.RunSeconds > 60 {
		t.Errorf("run_seconds %d", spec.RunSeconds)
	}
}

// TestBaselineCoversWorkloads checks baseline.json pins a digest and a
// memory ceiling for every workload.
func TestBaselineCoversWorkloads(t *testing.T) {
	b, err := loadBaseline()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		wb, ok := b.Workloads[w.name]
		if !ok || len(wb.Digest) != 16 || wb.MemCeilingMB <= 0 {
			t.Errorf("%s: baseline %+v", w.name, wb)
		}
	}
}

func metricByName(defs []metricDef, name string) *metricDef {
	for i := range defs {
		if defs[i].Name == name {
			return &defs[i]
		}
	}
	return nil
}
