package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"sort"
	"testing"
)

// benchmarkJSON mirrors the repository's BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name, Why string
	} `json:"workloads"`
	EndToEnd []MetricSpec `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit, Better string
	} `json:"per_layer"`
}

func TestBenchmarkJSONMatchesTables(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if got, want := names, workloadNames(); len(got) != len(want) || !equalStrings(got, want) {
		t.Errorf("BENCHMARK.json workloads %v, benchmark runs %v", got, want)
	}
	if len(bj.EndToEnd) != len(e2eMetrics) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the benchmark reports %d", len(bj.EndToEnd), len(e2eMetrics))
	}
	for i, m := range bj.EndToEnd {
		if m != e2eMetrics[i] {
			t.Errorf("end_to_end[%d] = %+v, benchmark reports %+v", i, m, e2eMetrics[i])
		}
	}
	if len(bj.PerLayer) != len(layerMetrics) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the benchmark reports %d", len(bj.PerLayer), len(layerMetrics))
	}
	for i, m := range bj.PerLayer {
		w := layerMetrics[i]
		if m.Name != w.Name || m.Unit != w.Unit || m.Better != w.Better {
			t.Errorf("per_layer[%d] = %+v, benchmark reports %+v", i, m, w)
		}
	}
}

func equalStrings(a, b []string) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return len(a) == len(b)
}

// smoke runs one workload in smoke mode in-process and returns its report
// and result line.
func smoke(t *testing.T, name, cacheDir string, trace bool, seed int64) (*Report, jsonResult) {
	t.Helper()
	cfg := &Config{Workload: name, Seed: seed, Seconds: 1, Trace: trace, Smoke: true,
		CacheDir: cacheDir, OutDir: t.TempDir()}
	w := workloads[name]
	if err := w.prepare(cfg); err != nil {
		t.Fatalf("%s: prepare: %v", name, err)
	}
	rep, err := w.run(context.Background(), cfg)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	res := rep.result(cfg)
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Fatalf("%s: correct=%v attempted=%d failed=%d, want every operation correct", name, res.Correct, res.Attempted, res.Failed)
	}
	return rep, res
}

// TestSmokeEveryWorkload checks that a short run of each workload answers
// everything correctly (error_rate 0) and emits every named metric with
// its unit: all end-to-end metrics nonzero, all per-layer metrics present.
func TestSmokeEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke runs take about a minute")
	}
	cache := t.TempDir()
	for _, name := range workloadNames() {
		t.Run(name, func(t *testing.T) {
			_, res := smoke(t, name, cache, false, 1)
			for _, m := range e2eMetrics {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit || !(got.Value > 0) || math.IsInf(got.Value, 0) {
					t.Errorf("%s = %+v, want a positive value in %s", m.Name, got, m.Unit)
				}
			}
			_, res = smoke(t, name, cache, true, 1)
			if len(res.Metrics) != len(layerMetrics) {
				t.Errorf("traced run reports %d metrics, want %d", len(res.Metrics), len(layerMetrics))
			}
			for _, m := range layerMetrics {
				if got, ok := res.Metrics[m.Name]; !ok || got.Unit != m.Unit || math.IsNaN(got.Value) {
					t.Errorf("%s = %+v, want a number in %s", m.Name, got, m.Unit)
				}
			}
		})
	}
}

// TestCountersRepeatAcrossSameSeedRuns checks that the counters that do
// not depend on timing repeat exactly across two runs with one seed, and
// logs the timing-dependent ones with their spread.
func TestCountersRepeatAcrossSameSeedRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("runs four traced smoke runs")
	}
	cache := t.TempDir()
	exact := []string{"bgpsim.classes", "bgpsim.collapse_ratio", "bgpsim.leak_unique_trial_ratio",
		"loadgen.repeat_key_share", "loadgen.repeat_class_share"}
	timing := []string{"serve.coalesced", "cluster.hedges", "cluster.multi_batches", "cluster.retries"}
	for _, name := range []string{"serve-mixed", "cluster-fanout"} {
		a, _ := smoke(t, name, cache, true, 7)
		b, _ := smoke(t, name, cache, true, 7)
		for _, m := range exact {
			if a.Layer[m] != b.Layer[m] {
				t.Errorf("%s %s: %v then %v on the same seed", name, m, a.Layer[m], b.Layer[m])
			}
		}
		for _, m := range timing {
			t.Logf("%s %s: %v and %v (timing-dependent)", name, m, a.Layer[m], b.Layer[m])
		}
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []Span{
		{ID: 1, Name: "http.reach", Start: 0, End: 5e6},
		{ID: 2, Parent: 1, Name: "core.reach", Start: 10e6, End: 12e6},
		{ID: 3, Name: "http.reach", Start: 20e6, End: 21e6}, // no replay: skipped
	}
	got := selfTimes(spans, "http.reach")
	if len(got) != 1 || got[0] != 3 {
		t.Fatalf("selfTimes = %v, want [3]", got)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 2.5}, {1, 4}} {
		if got := quantile(xs, c.q); got != c.want {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if xs[0] != 4 {
		t.Error("quantile sorted its input in place")
	}
}

// TestFailuresAreNotTimed checks that a failed operation makes the run
// incorrect and that only successful requests count in latencies.
func TestFailuresAreNotTimed(t *testing.T) {
	rep := newReport()
	rep.Attempted, rep.Failed = 3, 1
	if res := rep.result(&Config{}); res.Correct || res.Failed != 1 {
		t.Errorf("one failed of three: correct=%v failed=%d, want incorrect with 1 failed", res.Correct, res.Failed)
	}
	ops := []op{{Kind: "reach"}, {Kind: "reach"}, {Kind: "reach"}}
	outs := []outcome{
		{Op: 0, Latency: 5e6, Status: 200},
		{Op: 1, Latency: 1e6, Status: 500},
		{Op: 2, Latency: 1e6, Err: context.Canceled},
	}
	if got := latencies(ops, outs, nil); len(got) != 1 || got[0] != 5 {
		t.Errorf("latencies = %v, want [5]: failures are not timed", got)
	}
}
