package main

import (
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"testing"

	"contractdb/internal/datagen"
)

// TestSmoke runs every workload end to end, and the traced run, on the
// smoke sizes: every check runs, no operation fails, and every metric
// BENCHMARK.json names is printed with its unit.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs ctdbd")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "ctdbd")
	if out, err := exec.Command("go", "build", "-o", bin, "contractdb/cmd/ctdbd").CombinedOutput(); err != nil {
		t.Fatalf("build ctdbd: %v\n%s", err, out)
	}
	work := filepath.Join(dir, "work", "run")
	if err := os.MkdirAll(work, 0o755); err != nil {
		t.Fatal(err)
	}
	b := &bench{bin: bin, work: work, seconds: 1, sz: smokeSizes, voc: datagen.NewVocabulary()}
	for _, w := range []string{"query", "register", "stream"} {
		res, err := b.endToEnd(w, 7)
		if err != nil {
			t.Fatalf("%s: %v", w, err)
		}
		checkResult(t, w, res, endToEndMetrics)
	}
	res, err := b.traced("query", 7)
	if err != nil {
		t.Fatalf("traced: %v", err)
	}
	checkResult(t, "traced", res, layerMetrics)
}

func checkResult(t *testing.T, what string, res *result, want []metricSpec) {
	t.Helper()
	if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
		t.Errorf("%s: correct=%t attempted=%d failed=%d", what, res.Correct, res.Attempted, res.Failed)
	}
	if len(res.Metrics) != len(want) {
		t.Errorf("%s: %d metrics printed, want %d", what, len(res.Metrics), len(want))
	}
	for _, m := range want {
		got, ok := res.Metrics[m.Name]
		switch {
		case !ok:
			t.Errorf("%s: metric %s missing", what, m.Name)
		case got.Unit != m.Unit:
			t.Errorf("%s: metric %s has unit %q, want %q", what, m.Name, got.Unit, m.Unit)
		case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
			t.Errorf("%s: metric %s is %v", what, m.Name, got.Value)
		}
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the printed metrics in
// step.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricSpec `json:"end_to_end"`
		PerLayer  []metricSpec `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	for i, w := range driverWorkloads {
		if i >= len(spec.Workloads) || spec.Workloads[i].Name != w {
			t.Errorf("workload %d is not %s", i, w)
		}
	}
	same := func(what string, got, want []metricSpec) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d printed", what, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s %d: BENCHMARK.json has %+v, the benchmark prints %+v", what, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEndMetrics)
	same("per_layer", spec.PerLayer, layerMetrics)
}
