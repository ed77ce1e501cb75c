// Command flatbench is flatnet's end-to-end benchmark. It drives four
// named workloads against the program's real public surfaces — the
// flatnetd HTTP service (single process, clustered, evolving) and the
// in-process reproduction — checks every answer, and prints one JSON
// result line:
//
//	flatbench -workload serve-mixed -seed 1 -seconds 15 -trace 0
//
// With -trace 0 the result carries the end-to-end metrics; with -trace 1 a
// second, traced pass of the same workload reports per-layer metrics from
// spans the benchmark records around its own calls into each module.
// README.md in this directory documents the workloads and the metrics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime/debug"
	"sort"
	"time"
)

// Config is one run's parameters. The program under test sees only the
// inputs the workload generates from Seed.
type Config struct {
	Workload string
	Seed     int64
	Seconds  float64
	Trace    bool
	// Smoke shrinks the served worlds and set-up repetitions so a run
	// finishes in seconds; it is what the benchmark's own tests use.
	Smoke bool
	// CacheDir holds the untimed preparation (worlds, deltas, reference
	// answers); OutDir receives span files of traced runs.
	CacheDir, OutDir string
}

// serveScale is the scale of the served worlds (1.0 = the paper's
// 69,488-AS Internet); reproduceScale is the scale of the reproduction.
func (c *Config) serveScale() float64 {
	if c.Smoke {
		return 0.05
	}
	return 1.0
}

const reproduceScale = 0.1

// setups is how many times a run repeats its set-up; setup_s is the median.
func (c *Config) setups() int {
	if c.Smoke {
		return 1
	}
	return 3
}

func (c *Config) duration() time.Duration {
	return time.Duration(c.Seconds * float64(time.Second))
}

type workload struct {
	prepare func(cfg *Config) error
	run     func(ctx context.Context, cfg *Config) (*Report, error)
}

var workloads = map[string]workload{
	"serve-mixed":     {prepareServeWorld, runServeMixed},
	"cluster-fanout":  {prepareServeWorld, runClusterFanout},
	"evolve-timeline": {prepareTimeline, runEvolveTimeline},
	"reproduce":       {func(*Config) error { return nil }, runReproduce},
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "flatbench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("flatbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: "+fmt.Sprint(workloadNames()))
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 15, "measured seconds per timed phase")
	trace := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	prepare := fs.Bool("prepare", false, "only build the untimed preparation cache, then exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	w, ok := workloads[*name]
	if !ok {
		return fmt.Errorf("unknown workload %q (want one of %v)", *name, workloadNames())
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		return fmt.Errorf("-seconds must be positive and -trace 0 or 1")
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	cacheDir, err := cacheDirFor(exe)
	if err != nil {
		return err
	}
	cfg := &Config{
		Workload: *name, Seed: *seed, Seconds: *seconds, Trace: *trace == 1,
		CacheDir: cacheDir, OutDir: filepath.Join(".bench_build", "trace"),
	}
	if *prepare {
		return w.prepare(cfg)
	}
	rep, err := w.run(context.Background(), cfg)
	if err != nil {
		return err
	}
	rep.print(os.Stdout, cfg)
	b, err := json.Marshal(rep.result(cfg))
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

// result is the run's machine-readable line: the end-to-end metrics, or
// with tracing the per-layer ones, each by name with its unit. A run is
// correct only if no operation failed and no answer was wrong.
func (rep *Report) result(cfg *Config) jsonResult {
	res := jsonResult{
		Correct:   rep.Failed+rep.Wrong == 0,
		Attempted: rep.Attempted,
		Failed:    rep.Failed + rep.Wrong,
		Metrics:   map[string]jsonMetric{},
	}
	if cfg.Trace {
		for _, m := range layerMetrics {
			res.Metrics[m.Name] = jsonMetric{rep.Layer[m.Name], m.Unit}
		}
	} else {
		for _, m := range e2eMetrics {
			res.Metrics[m.Name] = jsonMetric{rep.E2E[m.Name], m.Unit}
		}
	}
	return res
}

// timedSetups runs setup cfg.setups() times, keeping the last instance
// and stopping the others; it returns the median set-up time in seconds.
// Each earlier instance is stopped and dropped before the next set-up, so
// no two instances are ever live at once and count in the peak RSS.
//
// Every set-up starts from a collected heap, and the timed phase that
// follows does too: a run's peak RSS and its first requests then do not
// depend on where the garbage collector's cycle happened to stand.
func timedSetups[T any](cfg *Config, setup func() (T, error), stop func(T)) (T, float64, error) {
	var last T
	var times []float64
	for i := 0; i < cfg.setups(); i++ {
		if i > 0 {
			stop(last)
			var zero T
			last = zero
		}
		debug.FreeOSMemory()
		t0 := time.Now()
		v, err := setup()
		if err != nil {
			return last, 0, err
		}
		times = append(times, time.Since(t0).Seconds())
		last = v
	}
	debug.FreeOSMemory()
	return last, median(times), nil
}

// overheadPct compares the traced phase's median latency with the
// untraced phase's, as a percentage of the untraced median.
func overheadPct(untraced, traced []float64) float64 {
	u := median(untraced)
	if u == 0 {
		return 0
	}
	return 100 * (median(traced) - u) / u
}

func writeTrace(cfg *Config, tr *Tracer) error {
	path, err := tr.Write(cfg.OutDir, cfg.Workload, cfg.Seed)
	if err == nil {
		fmt.Printf("# spans: %s (%d)\n", path, len(tr.Spans()))
	}
	return err
}
