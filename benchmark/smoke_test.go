package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"
)

// TestSmokeChatPaced runs chat_paced at 8 users for one second, traced, so
// that tier-1 keeps every part of the benchmark (deployment, generator,
// tracker, decorator, kernels, oracle) compiling and running as the
// program's APIs change. It asserts nothing about wall-clock time.
func TestSmokeChatPaced(t *testing.T) {
	if testing.Short() {
		t.Skip("boots a 3-DC TCP deployment")
	}
	w := newChatPaced(8.0 / 48)
	res, err := runWorkload(w, runOpts{seed: 1, seconds: 1, traced: true, warmup: 300 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if res.e.trk.nviol != 0 {
		t.Fatalf("oracle violations: %v", res.e.trk.violations)
	}
	sum := summarize(res)
	if sum.attempted == 0 || sum.failed != 0 {
		t.Fatalf("attempted %d, failed %d", sum.attempted, sum.failed)
	}
	if sum.n["commit_ack"] == 0 || sum.n["commit_visible"] == 0 || sum.n["read_hit"] == 0 {
		t.Fatalf("no samples: %v", sum.n)
	}
	for _, m := range endToEnd {
		if v, ok := sum.values[m.Name]; !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			t.Errorf("end-to-end metric %s = %v, %v", m.Name, v, ok)
		}
	}
	layers, err := layerMetrics(res, sum)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range perLayer {
		if v, ok := layers[m.Name]; !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			t.Errorf("per-layer metric %s = %v, %v", m.Name, v, ok)
		}
	}
	if layers["trace.unpaired"] != 0 {
		t.Errorf("%v deliveries did not pair with a send", layers["trace.unpaired"])
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the code's metric and
// workload tables in step.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var file struct {
		Command   []string `json:"command"`
		Paths     []string `json:"paths"`
		Workloads []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &file); err != nil {
		t.Fatal(err)
	}
	if len(file.Paths) != 1 || file.Paths[0] != "benchmark" {
		t.Errorf("paths = %v", file.Paths)
	}
	ws := workloads(1)
	if len(file.Workloads) != len(ws) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in code", len(file.Workloads), len(ws))
	}
	for i, w := range ws {
		if file.Workloads[i].Name != w.name() {
			t.Errorf("workload %d: %q in BENCHMARK.json, %q in code", i, file.Workloads[i].Name, w.name())
		}
	}
	if len(file.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in code", len(file.EndToEnd), len(endToEnd))
	}
	for i, m := range endToEnd {
		got := file.EndToEnd[i]
		if got.Name != m.Name || got.Unit != m.Unit || got.Better != m.Better || got.Bound != m.Bound {
			t.Errorf("end-to-end %d: %+v in BENCHMARK.json, %+v in code", i, got, m)
		}
	}
	if len(file.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in code", len(file.PerLayer), len(perLayer))
	}
	for i, m := range perLayer {
		got := file.PerLayer[i]
		if got.Name != m.Name || got.Unit != m.Unit || got.Better != m.Better {
			t.Errorf("per-layer %d: %+v in BENCHMARK.json, %+v in code", i, got, m)
		}
	}
}
