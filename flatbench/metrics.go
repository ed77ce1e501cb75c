package main

import (
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
)

// MetricSpec names one reported metric. The two tables below are the
// benchmark's contract and mirror BENCHMARK.json at the repository root
// (a test keeps them in step).
type MetricSpec struct {
	Name, Unit, Better string
	Bound              float64 // end-to-end only: allowed worsening, as a share of the median
	// Moves is a per-layer metric's prediction: the end-to-end metric it
	// should move, on the workload that shows it.
	Moves string `json:"-"`
}

// e2eMetrics are reported by every workload with -trace 0. Each is
// defined for every workload; README.md gives the per-workload meaning.
var e2eMetrics = []MetricSpec{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "tail_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "heavy_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "rss_peak_mb", Unit: "MB", Better: "lower", Bound: 0.25},
}

func layer(name, unit, better, moves string) MetricSpec {
	return MetricSpec{Name: name, Unit: unit, Better: better, Moves: moves}
}

// layerMetrics are reported by every workload with -trace 1. A layer the
// workload does not exercise reports 0.
var layerMetrics = func() []MetricSpec {
	const (
		sm = " on serve-mixed"
		cf = " on cluster-fanout"
		et = " on evolve-timeline"
		rp = " on reproduce"
	)
	ms := []MetricSpec{
		layer("serve.reach_self_ms", "ms", "lower", "p50_ms"+sm+", evolve-timeline"),
		layer("serve.reliance_self_ms", "ms", "lower", "p50_ms"+sm),
		layer("serve.leak_self_ms", "ms", "lower", "heavy_ms"+sm+"; tail_ms"+cf),
		layer("serve.batch_self_ms", "ms", "lower", "p50_ms"+cf),
		layer("serve.sweep_self_ms", "ms", "lower", "heavy_ms (sweep_s)"+cf+"; heavy_ms (sweep_hf_ms)"+et),
		layer("serve.evolve_self_ms", "ms", "lower", "heavy_ms (evolve_ms)"+et),
		layer("serve.cache_hit_ratio", "ratio", "higher", "p50_ms"+sm+", evolve-timeline"),
		layer("serve.computations", "count", "lower", "tail_ms, heavy_ms"+sm),
		layer("serve.coalesced", "count", "higher", "tail_ms, heavy_ms"+sm),
		layer("serve.shed", "count", "lower", "p50_ms, tail_ms"+cf),
		layer("core.reach_ms", "ms", "lower", "p50_ms"+sm+", evolve-timeline"),
		layer("core.reliance_ms", "ms", "lower", "p50_ms (reliance_p50_ms)"+sm),
		layer("core.many_ms", "ms", "lower", "p50_ms (batch_hf_ms, batch_pf_ms)"+cf),
		layer("core.class_counts_pf_ms", "ms", "lower", "heavy_ms (sweep_s)"+cf),
		layer("core.class_counts_t1f_ms", "ms", "lower", "heavy_ms (sweep_s)"+cf),
		layer("core.class_counts_hf_ms", "ms", "lower", "heavy_ms (sweep_s)"+cf),
		layer("core.class_counts_full_ms", "ms", "lower", "heavy_ms (sweep_s)"+cf),
		layer("core.sweep_ms", "ms", "lower", "heavy_ms (sweep_hf_ms)"+et),
		layer("core.new_ms", "ms", "lower", "heavy_ms"+et+"; setup_s on all"),
		layer("core.classes_build_ms", "ms", "lower", "tail_ms, heavy_ms"+et+"; setup_s on all"),
		layer("bgpsim.leak_prepass_ms", "ms", "lower", "heavy_ms"+sm+"; tail_ms"+cf),
		layer("bgpsim.leak_trials_ms", "ms", "lower", "heavy_ms"+sm+"; tail_ms"+cf),
		layer("bgpsim.leak_unique_trial_ratio", "ratio", "lower", "heavy_ms"+sm+"; tail_ms"+cf),
		layer("bgpsim.classes", "count", "lower", "tail_ms, heavy_ms (sweep_s)"+cf),
		layer("bgpsim.collapse_ratio", "ratio", "higher", "tail_ms, heavy_ms (sweep_s)"+cf),
		layer("bgpsim.expand_ms", "ms", "lower", "heavy_ms (sweep_s)"+cf),
		layer("cluster.dispatch_ms", "ms", "lower", "p50_ms, tail_ms, heavy_ms (sweep_s)"+cf),
		layer("cluster.remote_shards", "count", "lower", "p50_ms, tail_ms, heavy_ms (sweep_s)"+cf),
		layer("cluster.hedges", "count", "lower", "tail_ms, heavy_ms (sweep_s)"+cf),
		layer("cluster.retries", "count", "lower", "tail_ms, heavy_ms (sweep_s)"+cf),
		layer("cluster.multi_batches", "count", "higher", "heavy_ms (sweep_s)"+cf),
		layer("cluster.useful_shard_ratio", "ratio", "higher", "p50_ms, tail_ms, heavy_ms (sweep_s)"+cf),
		layer("cluster.wire_bytes", "B", "lower", "p50_ms, heavy_ms (sweep_s)"+cf),
		layer("cluster.wire_encode_ms", "ms", "lower", "heavy_ms (sweep_s)"+cf),
		layer("cluster.wire_decode_ms", "ms", "lower", "heavy_ms (sweep_s)"+cf),
		layer("cluster.dataset_hash_ms", "ms", "lower", "heavy_ms (evolve_ms)"+et+"; setup_s on serving workloads"),
		layer("snapshot.open_ms", "ms", "lower", "setup_s on serving workloads"),
		layer("snapshot.decode_delta_ms", "ms", "lower", "heavy_ms (evolve_ms)"+et),
		layer("topogen.apply_delta_ms", "ms", "lower", "heavy_ms (evolve_ms)"+et),
		layer("topogen.generate_ms", "ms", "lower", "setup_s"+rp),
	}
	for _, id := range experimentIDs() {
		moves := "p50_ms (reproduce_s)" + rp
		if id == heavyExperiment {
			moves = "p50_ms, heavy_ms" + rp
		}
		ms = append(ms, layer("experiments."+id+"_ms", "ms", "lower", moves))
	}
	return append(ms,
		layer("netdb.plan_ms", "ms", "lower", "setup_s"+rp),
		layer("rdns.corpus_ms", "ms", "lower", "setup_s"+rp),
		layer("tracesim.traces_ms", "ms", "lower", "setup_s"+rp),
		layer("bgpfeed.collect_ms", "ms", "lower", "p50_ms, heavy_ms"+rp),
		layer("asrel.infer_ms", "ms", "lower", "p50_ms"+rp),
		layer("neighbors.infer_ms", "ms", "lower", "p50_ms, heavy_ms"+rp),
		layer("loadgen.lag_p99_ms", "ms", "lower", "input property: inflates every open-loop latency"),
		layer("loadgen.repeat_key_share", "ratio", "higher", "input property: bounds serve.cache_hit_ratio"),
		layer("loadgen.repeat_class_share", "ratio", "higher", "input property: bounds class-level cache reuse"),
		layer("loadgen.trials_per_leak", "count", "lower", "input property: scales leak latency (heavy_ms"+sm+"; tail_ms"+cf+")"),
		layer("loadgen.origins_per_batch", "count", "lower", "input property: scales batch latency"),
		layer("trace.overhead_pct", "%", "lower", "none: cost of the benchmark's own tracing"),
	)
}()

// Named is one of the per-operation metrics printed in the human-readable
// report (reach_p50_ms, sweep_s, ...), which name the operation they time.
type Named struct {
	Name  string
	Value float64
	Unit  string
}

// Report is what one workload run measured.
type Report struct {
	// Attempted counts operations; Failed counts non-200 responses and
	// errors; Wrong counts answers that failed verification.
	Attempted, Failed, Wrong int
	E2E                      map[string]float64
	Layer                    map[string]float64
	Named                    []Named
	// Inputs records properties of the generated inputs, so a later cache
	// or dedup claim can cite how much the workload repeats itself.
	Inputs []Named
}

func newReport() *Report {
	return &Report{E2E: map[string]float64{}, Layer: map[string]float64{}}
}

func (r *Report) named(name string, v float64, unit string) {
	r.Named = append(r.Named, Named{name, v, unit})
}

func (r *Report) input(name string, v float64, unit string) {
	r.Inputs = append(r.Inputs, Named{name, v, unit})
}

// wrongf records one failed verification and explains it on stderr.
func (r *Report) wrongf(format string, args ...any) {
	r.Wrong++
	if r.Wrong <= 10 {
		fmt.Fprintf(os.Stderr, "flatbench: wrong answer: "+format+"\n", args...)
	}
}

// print writes the human-readable report: every per-operation metric of
// the workload with its unit, the recorded input properties, and error_rate.
func (r *Report) print(w io.Writer, cfg *Config) {
	mode := "untraced"
	if cfg.Trace {
		mode = "traced"
	}
	fmt.Fprintf(w, "# flatbench %s seed=%d seconds=%g (%s)\n", cfg.Workload, cfg.Seed, cfg.Seconds, mode)
	errRate := 0.0
	if r.Attempted > 0 {
		errRate = float64(r.Failed+r.Wrong) / float64(r.Attempted)
	}
	rows := append(append([]Named(nil), r.Named...), Named{"error_rate", errRate, "ratio"})
	for _, n := range rows {
		fmt.Fprintf(w, "%-34s %14.4f %s\n", n.Name, n.Value, n.Unit)
	}
	for _, n := range r.Inputs {
		fmt.Fprintf(w, "input %-28s %14.4f %s\n", n.Name, n.Value, n.Unit)
	}
	if cfg.Trace {
		for _, m := range layerMetrics {
			if v := r.Layer[m.Name]; v != 0 {
				fmt.Fprintf(w, "layer %-30s %14.4f %-5s -> %s\n", m.Name, v, m.Unit, m.Moves)
			}
		}
	}
}

// quantile returns the q-quantile (0..1) of xs by linear interpolation
// between closest ranks; 0 for an empty sample. xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// mean is the arithmetic mean; 0 for an empty sample.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			var kb float64
			fmt.Sscanf(strings.TrimSpace(strings.TrimPrefix(line, "VmHWM:")), "%f", &kb)
			return kb / 1024
		}
	}
	return 0
}
