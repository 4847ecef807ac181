package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"
)

// spec is the part of BENCHMARK.json the smoke test checks against.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// TestMain lets the test binary serve as the host probe's child process.
func TestMain(m *testing.M) {
	if code, ok := probeChild(); ok {
		os.Exit(code)
	}
	os.Exit(m.Run())
}

// TestSmoke runs every workload of BENCHMARK.json at a tiny scale, untraced
// and traced, and checks that each run is correct and emits exactly the
// metrics BENCHMARK.json names, each with its unit.
func TestSmoke(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var sp spec
	if err := json.Unmarshal(raw, &sp); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range sp.Workloads {
		names = append(names, w.Name)
	}
	if len(names) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json workloads %v, benchmark runs %v", names, workloadNames)
	}
	for _, w := range names {
		for _, trace := range []bool{false, true} {
			want := sp.EndToEnd
			if trace {
				want = sp.PerLayer
			}
			t.Run(w+map[bool]string{false: "/untraced", true: "/traced"}[trace], func(t *testing.T) {
				out, err := run(config{Workload: w, Seed: 3, Measure: 600 * time.Millisecond, Trace: trace,
					WorkDir: t.TempDir(), Scale: 0.05, Setups: 2, Log: io.Discard})
				if err != nil {
					t.Fatal(err)
				}
				if !out.Correct || out.Failed != 0 || out.Attempted == 0 {
					t.Errorf("correct=%v failed=%d attempted=%d", out.Correct, out.Failed, out.Attempted)
				}
				checkMetrics(t, out.Metrics, want)
			})
		}
	}
}

func checkMetrics(t *testing.T, got map[string]metric, want []specMetric) {
	t.Helper()
	seen := make(map[string]bool)
	for _, m := range want {
		seen[m.Name] = true
		g, ok := got[m.Name]
		switch {
		case !ok:
			t.Errorf("metric %s missing", m.Name)
		case g.Unit != m.Unit:
			t.Errorf("metric %s unit %q, BENCHMARK.json says %q", m.Name, g.Unit, m.Unit)
		}
	}
	var extra []string
	for name := range got {
		if !seen[name] {
			extra = append(extra, name)
		}
	}
	sort.Strings(extra)
	if len(extra) > 0 {
		t.Errorf("metrics not in BENCHMARK.json: %v", extra)
	}
}
