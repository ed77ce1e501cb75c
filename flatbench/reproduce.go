package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"time"

	"flatnet/internal/asrel"
	"flatnet/internal/astopo"
	"flatnet/internal/bgpfeed"
	"flatnet/internal/core"
	"flatnet/internal/experiments"
	"flatnet/internal/neighbors"
	"flatnet/internal/netdb"
	"flatnet/internal/rdns"
	"flatnet/internal/topogen"
	"flatnet/internal/tracesim"
)

// reproduce: the in-process equivalent of `flatnet run all` at scale 0.1
// — experiments.NewEnv, Prewarm, then every Registry runner in paper
// order, one at a time. It is the only workload that runs tracesim,
// bgpfeed, neighbors, netdb, rdns, geo and population, and it does not
// touch serve.

// heavyExperiment is the slowest runner (BGP-feed collection plus
// traceroute neighbor inference), whose median time is heavy_ms.
const heavyExperiment = "sec41"

func experimentIDs() []string {
	ids := make([]string, len(experiments.Registry))
	for i, r := range experiments.Registry {
		ids[i] = r.ID
	}
	return ids
}

func digest(b []byte) string { return fmt.Sprintf("%x", sha256.Sum256(b)) }

func runReproduce(ctx context.Context, cfg *Config) (*Report, error) {
	rep := newReport()
	first := experiments.Registry[0]
	setup := func() (*experiments.Env, error) {
		env, err := experiments.NewEnv(reproduceScale)
		if err != nil {
			return nil, err
		}
		if err := env.Prewarm(); err != nil {
			return nil, err
		}
		var buf bytes.Buffer
		if err := first.Run(env, &buf); err != nil {
			return nil, err
		}
		if got := digest(buf.Bytes()); got != reproduceDigests[first.ID] {
			return nil, fmt.Errorf("set-up: %s output digest %.12s…, want %.12s…", first.ID, got, reproduceDigests[first.ID])
		}
		return env, nil
	}
	env, setupS, err := timedSetups(cfg, setup, func(*experiments.Env) {})
	if err != nil {
		return nil, err
	}

	// phase reproduces the paper repeatedly until the run's seconds are
	// spent (at least once), returning each whole reproduction's time and
	// each experiment's times.
	phase := func(env *experiments.Env, tr *Tracer) ([]float64, map[string][]float64) {
		var whole []float64
		per := map[string][]float64{}
		deadline := time.Now().Add(cfg.duration())
		var buf bytes.Buffer
		for it := 0; it == 0 || time.Now().Before(deadline); it++ {
			t0 := time.Now()
			failed := false
			for _, r := range experiments.Registry {
				buf.Reset()
				rep.Attempted++
				ms, err := tr.Time("experiments."+r.ID, int64(it+1), 0, func() error { return r.Run(env, &buf) })
				if err != nil {
					// A failed experiment is a failure, not a time.
					rep.Failed++
					failed = true
					continue
				}
				per[r.ID] = append(per[r.ID], ms)
				if got := digest(buf.Bytes()); got != reproduceDigests[r.ID] {
					rep.wrongf("%s: output digest %.12s…, want %.12s…", r.ID, got, reproduceDigests[r.ID])
				}
			}
			if !failed {
				whole = append(whole, float64(time.Since(t0))/1e6)
			}
		}
		return whole, per
	}
	wholeA, perA := phase(env, nil)
	rss := peakRSSMB()

	rep.E2E["setup_s"] = setupS
	rep.E2E["p50_ms"] = median(wholeA)
	rep.E2E["tail_ms"] = quantile(wholeA, 1)
	rep.E2E["heavy_ms"] = median(perA[heavyExperiment])
	rep.E2E["rss_peak_mb"] = rss
	rep.named("setup_s", setupS, "s")
	rep.named("reproduce_s", median(wholeA)/1e3, "s")
	rep.named(heavyExperiment+"_ms", median(perA[heavyExperiment]), "ms")
	rep.named("rss_peak_mb", rss, "MB")
	rep.named("samples", float64(len(wholeA)), "count")
	rep.input("scale", reproduceScale, "scale")
	rep.input("experiments", float64(len(experiments.Registry)), "count")

	if cfg.Trace {
		tr := newTracer()
		envB, err := setup()
		if err != nil {
			return nil, err
		}
		wholeB, perB := phase(envB, tr)
		for id, xs := range perB {
			rep.Layer["experiments."+id+"_ms"] = median(xs)
		}
		rep.Layer["trace.overhead_pct"] = overheadPct(wholeA, wholeB)
		if err := pipelineLayers(rep, tr); err != nil {
			return nil, err
		}
		if err := writeTrace(cfg, tr); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// pipelineLayers calls the reproduction's pipeline modules directly, on
// the inputs sec41 and ablation give them, each on fresh state.
func pipelineLayers(rep *Report, tr *Tracer) error {
	var err error
	var in *topogen.Internet
	if rep.Layer["topogen.generate_ms"], err = tr.Time("topogen.generate", 0, 0, func() error {
		var err error
		in, err = topogen.Generate(topogen.Internet2020(reproduceScale))
		return err
	}); err != nil {
		return err
	}
	ds := core.Dataset{Graph: in.Graph, Tier1: in.Tier1, Tier2: in.Tier2}
	var m *core.Metrics
	rep.Layer["core.new_ms"], _ = tr.Time("core.new", 0, 0, func() error { m = core.New(ds); return nil })
	rep.Layer["core.classes_build_ms"], _ = tr.Time("core.classes_build", 0, 0, func() error { m.Classes(); return nil })

	var plan *netdb.Plan
	if rep.Layer["netdb.plan_ms"], err = tr.Time("netdb.plan", 0, 0, func() error {
		var err error
		plan, err = netdb.Build(in)
		return err
	}); err != nil {
		return err
	}
	rep.Layer["rdns.corpus_ms"], _ = tr.Time("rdns.corpus", 0, 0, func() error {
		rdns.Synthesize(plan, 20200901)
		return nil
	})
	clouds := experiments.Clouds()
	var traces [][][]tracesim.Traceroute
	if rep.Layer["tracesim.traces_ms"], err = tr.Time("tracesim.traces", 0, 0, func() error {
		eng := tracesim.New(plan, tracesim.DefaultOptions(2020))
		sets := make([][]tracesim.VM, len(clouds))
		for i, c := range clouds {
			vms, err := eng.VMs(c, 0)
			if err != nil {
				return err
			}
			sets[i] = vms
		}
		var err error
		traces, err = eng.TraceAllMulti(sets)
		return err
	}); err != nil {
		return err
	}
	// The feed's vantage points: transit, Tier-2 and Tier-1 networks, 40
	// sampled with seed 11, as sec41 and ablation collect them.
	var cands []astopo.ASN
	for i, a := range in.Graph.ASes() {
		switch in.ClassAt(i) {
		case topogen.ClassTransit, topogen.ClassTier2, topogen.ClassTier1:
			cands = append(cands, a)
		}
	}
	var view *bgpfeed.View
	if rep.Layer["bgpfeed.collect_ms"], err = tr.Time("bgpfeed.collect", 0, 0, func() error {
		var err error
		view, err = bgpfeed.Collect(in.Graph, bgpfeed.SampleVPs(cands, 40, 11))
		return err
	}); err != nil {
		return err
	}
	rep.Layer["asrel.infer_ms"], _ = tr.Time("asrel.infer", 0, 0, func() error {
		asrel.Infer(view.Paths, asrel.Options{})
		return nil
	})
	if rep.Layer["neighbors.infer_ms"], err = tr.Time("neighbors.infer", 0, 0, func() error {
		res, err := neighbors.NewResolvers(plan)
		if err != nil {
			return err
		}
		for i, c := range clouds {
			neighbors.Infer(traces[i], in.Clouds[c], res, neighbors.StageFinal)
		}
		return nil
	}); err != nil {
		return err
	}
	return nil
}
