package main

import (
	"encoding/json"
	"os"
	"slices"
	"testing"
)

// TestBenchmarkJSONMatchesMetrics keeps BENCHMARK.json, which declares the
// benchmark, in step with the workloads and metrics this command reports.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &decl); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range decl.Workloads {
		names = append(names, w.Name)
	}
	if want := sortedKeys(workloads); !slices.Equal(slices.Sorted(slices.Values(names)), want) {
		t.Errorf("BENCHMARK.json workloads %v, command runs %v", names, want)
	}
	for _, c := range []struct {
		field string
		decl  []struct{ Name, Unit string }
		defs  []metricDef
	}{{"end_to_end", decl.EndToEnd, endToEnd}, {"per_layer", decl.PerLayer, perLayer}} {
		if len(c.decl) != len(c.defs) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, the command reports %d", c.field, len(c.decl), len(c.defs))
			continue
		}
		for i, d := range c.defs {
			if c.decl[i].Name != d.name || c.decl[i].Unit != d.unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the command reports %s (%s)",
					c.field, i, c.decl[i].Name, c.decl[i].Unit, d.name, d.unit)
			}
		}
	}
}
