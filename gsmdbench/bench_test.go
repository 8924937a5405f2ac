package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// benchmarkFile is the part of ../BENCHMARK.json the self-test checks.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// TestWorkloadsTiny runs every workload BENCHMARK.json lists at tiny scale
// against a freshly built gsmd, untraced and traced, and checks that each
// run is correct, fails nothing, and reports exactly the named metrics
// with their units.
func TestWorkloadsTiny(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	gsmd := filepath.Join(dir, "gsmd")
	if out, err := exec.Command("go", "build", "-o", gsmd, "repro/cmd/gsmd").CombinedOutput(); err != nil {
		t.Fatalf("building gsmd: %v\n%s", err, out)
	}
	for _, w := range bf.Workloads {
		sp, ok := specs[w.Name]
		if !ok {
			t.Fatalf("BENCHMARK.json names workload %q, which the benchmark does not define", w.Name)
		}
		sp.nodes, sp.selective, sp.reps = 300, 10, 2
		if sp.wide > 0 {
			sp.wide = 5
		}
		for _, trace := range []bool{false, true} {
			want := bf.EndToEnd
			if trace {
				want = bf.PerLayer
			}
			cfg := config{spec: sp, seed: 3, seconds: 0.5, trace: trace, gsmd: gsmd, dir: filepath.Join(dir, w.Name)}
			res, err := run(cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", w.Name, trace, res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json names %d", w.Name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s = %+v (present %v), want unit %s", w.Name, trace, m.Name, got, ok, m.Unit)
				}
			}
		}
	}
}
