package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"sync"
	"time"

	"flatnet/internal/astopo"
	"flatnet/internal/cluster"
	"flatnet/internal/core"
	"flatnet/internal/snapshot"
	"flatnet/internal/topogen"
)

// evolve-timeline: one flatnetd serving the 2015 world at scale 1.0. It
// POSTs the ten yearly /v1/evolve deltas to 2025 at fixed spacing, each
// followed by a cold hierarchy-free /v1/sweep, while open-loop /v1/reach
// reads run throughout. Every swap rotates the caches and rebuilds the
// class index, so this is the write path beside reads: delta apply, world
// hash and class build, and any read-latency cost of writes.

const evolveReadRate = 200.0 // /v1/reach reads per second

type evolveStep struct {
	evolveMS, sweepMS         float64
	evolveSpan, sweepSpan     int64
	evolveStatus, sweepStatus int
}

func runEvolveTimeline(ctx context.Context, cfg *Config) (*Report, error) {
	var td timelineData
	if err := readGob(cfg.timelinePath(), &td); err != nil {
		return nil, err
	}
	worlds := map[int]*worldAnswers{len(td.Base.ASNs) - 1: td.Base}
	for _, st := range td.Steps {
		worlds[len(st.Result.ASNs)-1] = st.Result
	}
	readC, writeC := newClient(1), newClient(1)
	defer readC.CloseIdleConnections()
	defer writeC.CloseIdleConnections()
	setup := func() (*node, error) {
		n, err := startNode(cfg.world2015Path(), timelineFrom)
		if err != nil {
			return nil, err
		}
		if err := firstReach(ctx, readC, n.base, td.Base); err != nil {
			n.stop()
			return nil, err
		}
		return n, nil
	}
	nd, setupS, err := timedSetups(cfg, setup, (*node).stop)
	if err != nil {
		return nil, err
	}

	rng := rand.New(rand.NewSource(cfg.Seed))
	asns := make([]astopo.ASN, len(td.Base.ASNs))
	for i, a := range td.Base.ASNs {
		asns[i] = astopo.ASN(a)
	}
	z := newZipf(rng, asns)
	ops := make([]op, int(evolveReadRate*cfg.Seconds))
	for i := range ops {
		o := z.next()
		p := fmt.Sprintf("/v1/reach?as=%d", o)
		ops[i] = op{Kind: "reach", Method: http.MethodGet, Path: p, Key: p, ClassKey: p, Origin: o, RKind: core.HierarchyFree}
	}

	rep := newReport()
	phase := func(nd *node, tr *Tracer) ([]outcome, []evolveStep, serverStats, serverStats) {
		before, _ := fetchStats(ctx, readC, nd.base) // zero stats only blank the counters
		var outs []outcome
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			outs = openLoop(ctx, readC, nd.base, ops, evolveReadRate, 1, tr)
		}()
		steps := make([]evolveStep, len(td.Steps))
		start := time.Now()
		spacing := cfg.duration() / time.Duration(len(td.Steps))
		for k, st := range td.Steps {
			if wait := time.Until(start.Add(time.Duration(k) * spacing)); wait > 0 {
				time.Sleep(wait)
			}
			s := &steps[k]
			end := tr.Start("http.evolve", int64(-(k + 1)), 0)
			t0 := time.Now()
			status, body, err := do(ctx, writeC, http.MethodPost, nd.base+"/v1/evolve", "", "application/octet-stream", st.Delta)
			s.evolveMS, s.evolveSpan = float64(time.Since(t0))/1e6, end()
			if err == nil && status == http.StatusOK {
				var er struct {
					ToWorld string `json:"to_world"`
					ToYear  int    `json:"to_year"`
				}
				if json.Unmarshal(body, &er) != nil || er.ToWorld != st.Result.Hash || er.ToYear != st.ToYear {
					rep.wrongf("evolve %d→%d: got %s, want world %.12s…", st.FromYear, st.ToYear, body, st.Result.Hash)
				}
				s.evolveStatus = status
			}
			end = tr.Start("http.sweep", int64(-(k + 1)), 0)
			t0 = time.Now()
			counts, status, err := getWireCounts(ctx, writeC, nd.base+"/v1/sweep?kind=hierarchy-free", len(st.Result.ASNs))
			s.sweepMS, s.sweepSpan = float64(time.Since(t0))/1e6, end()
			if err == nil && status == http.StatusOK {
				s.sweepStatus = status
				for j, v := range counts {
					if int32(v) != st.Result.Counts[core.HierarchyFree][j] {
						rep.wrongf("%d sweep: AS%d reachable %d, want %d", st.ToYear, st.Result.ASNs[j], v, st.Result.Counts[core.HierarchyFree][j])
						break
					}
				}
			}
		}
		wg.Wait()
		after, _ := fetchStats(ctx, readC, nd.base)
		return outs, steps, before, after
	}
	outsA, stepsA, _, _ := phase(nd, nil)
	rss := peakRSSMB()
	nd.stop()
	var tr *Tracer
	var outsB []outcome
	var stepsB []evolveStep
	if cfg.Trace {
		tr = newTracer()
		ndB, err := setup()
		if err != nil {
			return nil, err
		}
		var before, after serverStats
		outsB, stepsB, before, after = phase(ndB, tr)
		ndB.stop()
		statsLayers(rep, before, after)
	}

	// Verification: the evolve and sweep answers were checked as they
	// arrived; every read is checked against the reference answers of the
	// world it was served from, which its "total" field identifies.
	verify := func(outs []outcome, steps []evolveStep) {
		for i := range outs {
			o := &outs[i]
			rep.Attempted++
			if !o.ok() {
				rep.Failed++
				continue
			}
			var rb reachBody
			q := &ops[o.Op]
			if err := json.Unmarshal(o.Body, &rb); err != nil {
				rep.wrongf("%s: bad body %s", q.Path, o.Body)
				continue
			}
			wa, ok := worlds[rb.Total]
			want, _ := wa.count(q.Origin, core.HierarchyFree)
			if !ok || rb.Reachable != want {
				rep.wrongf("%s: got %s, want reachable %d", q.Path, o.Body, want)
			}
		}
		for _, s := range steps {
			rep.Attempted += 2
			for _, st := range []int{s.evolveStatus, s.sweepStatus} {
				if st != http.StatusOK {
					rep.Failed++
				}
			}
		}
	}
	verify(outsA, stepsA)
	verify(outsB, stepsB)

	// Only successful steps are timed: a failed step is a failure. A write
	// step is the evolve plus the first sweep of the new world.
	var evolveMS, sweepMS, writeMS []float64
	for _, s := range stepsA {
		if s.evolveStatus == http.StatusOK {
			evolveMS = append(evolveMS, s.evolveMS)
		}
		if s.sweepStatus == http.StatusOK {
			sweepMS = append(sweepMS, s.sweepMS)
		}
		if s.evolveStatus == http.StatusOK && s.sweepStatus == http.StatusOK {
			writeMS = append(writeMS, s.evolveMS+s.sweepMS)
		}
	}
	reads := latencies(ops, outsA, nil)
	rep.E2E["setup_s"] = setupS
	rep.E2E["p50_ms"] = median(reads)
	firsts := firstReads(outsA, len(td.Base.ASNs)-1)
	rep.E2E["tail_ms"] = mean(firsts)
	rep.E2E["heavy_ms"] = mean(writeMS)
	rep.E2E["rss_peak_mb"] = rss
	rep.named("setup_s", setupS, "s")
	rep.named("reach_p50_ms", median(reads), "ms")
	rep.named("reach_p99_ms", quantile(reads, 0.99), "ms")
	rep.named("first_read_ms", rep.E2E["tail_ms"], "ms")
	rep.named("sweep_hf_ms", mean(sweepMS), "ms")
	rep.named("evolve_ms", mean(evolveMS), "ms")
	rep.named("rss_peak_mb", rss, "MB")
	rep.named("samples", float64(len(outsA)), "count")
	keyShare, classShare := inputShares(rep, ops)
	rep.input("rate", evolveReadRate, "1/s")
	rep.input("lag_p99_ms", lagP99(outsA), "ms")

	if cfg.Trace {
		rep.Layer["loadgen.lag_p99_ms"] = lagP99(outsB)
		rep.Layer["loadgen.repeat_key_share"] = keyShare
		rep.Layer["loadgen.repeat_class_share"] = classShare
		rep.Layer["trace.overhead_pct"] = overheadPct(reads, latencies(ops, outsB, nil))
		setupLayers(rep, tr, cfg.world2015Path(), timelineFrom)
		if err := replayTimeline(ctx, cfg, rep, tr, &td, ops, outsB, stepsB); err != nil {
			return nil, err
		}
		spans := tr.Spans()
		rep.Layer["serve.reach_self_ms"] = median(selfTimes(spans, "http.reach"))
		rep.Layer["serve.evolve_self_ms"] = median(selfTimes(spans, "http.evolve"))
		rep.Layer["serve.sweep_self_ms"] = median(selfTimes(spans, "http.sweep"))
		for _, name := range []string{"snapshot.decode_delta", "topogen.apply_delta", "cluster.dataset_hash",
			"core.new", "core.classes_build", "core.sweep", "core.reach"} {
			rep.Layer[name+"_ms"] = median(tr.durations(name))
		}
		if err := writeTrace(cfg, tr); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// firstReads returns, for each evolved world, the latency of the first
// read (by due time) it answered: the read that pays for the swap — the
// new world's cold caches and lazy class index. Its mean over the ten
// swaps is steadier than a percentile over all reads, which falls inside
// or at the edge of the cluster of reads stalled behind each swap.
func firstReads(outs []outcome, baseTotal int) []float64 {
	first := map[int]*outcome{}
	for i := range outs {
		o := &outs[i]
		var rb reachBody
		if !o.ok() || json.Unmarshal(o.Body, &rb) != nil || rb.Total == baseTotal {
			continue
		}
		if f, ok := first[rb.Total]; !ok || o.Op < f.Op {
			first[rb.Total] = o
		}
	}
	var xs []float64
	for _, o := range first {
		xs = append(xs, o.ms())
	}
	return xs
}

// replayTimeline walks the traced phase's timeline again with direct
// calls on fresh instances: decode each delta, apply it, hash and index
// the result, sweep it, and re-run the first reads each world served.
func replayTimeline(ctx context.Context, cfg *Config, rep *Report, tr *Tracer, td *timelineData, ops []op, outs []outcome, steps []evolveStep) error {
	rd, err := snapshot.Open(cfg.world2015Path())
	if err != nil {
		return err
	}
	defer rd.Close()
	prev := rd.Internet(timelineFrom)
	// Reads grouped by the world that answered them, at most 20 per world.
	byWorld := map[int][]*outcome{}
	for i := range outs {
		o := &outs[i]
		var rb reachBody
		if o.ok() && json.Unmarshal(o.Body, &rb) == nil && len(byWorld[rb.Total]) < 20 {
			byWorld[rb.Total] = append(byWorld[rb.Total], o)
		}
	}
	replayReads := func(m *core.Metrics) error {
		for _, o := range byWorld[m.Dataset().Graph.NumASes()-1] {
			q := &ops[o.Op]
			if _, err := tr.Time("core.reach", int64(o.Op+1), o.Span, func() error {
				_, err := m.ReachabilityCtx(ctx, q.Origin, q.RKind)
				return err
			}); err != nil {
				return err
			}
		}
		return nil
	}
	base := core.New(core.Dataset{Graph: prev.Graph, Tier1: prev.Tier1, Tier2: prev.Tier2})
	base.Classes()
	if err := replayReads(base); err != nil {
		return err
	}
	var last *core.Metrics
	for k, st := range td.Steps {
		req, s := int64(-(k + 1)), &steps[k]
		var d *snapshot.Delta
		if _, err := tr.Time("snapshot.decode_delta", req, s.evolveSpan, func() error {
			var err error
			d, err = snapshot.DecodeDelta(st.Delta)
			return err
		}); err != nil {
			return err
		}
		var next *topogen.Internet
		if _, err := tr.Time("topogen.apply_delta", req, s.evolveSpan, func() error {
			var err error
			next, err = topogen.ApplyDelta(prev, d.Growth)
			return err
		}); err != nil {
			return err
		}
		ds := core.Dataset{Graph: next.Graph, Tier1: next.Tier1, Tier2: next.Tier2}
		tr.Time("cluster.dataset_hash", req, s.evolveSpan, func() error {
			cluster.DatasetHash(ds.Graph, ds.Tier1, ds.Tier2)
			return nil
		})
		var m *core.Metrics
		tr.Time("core.new", req, s.evolveSpan, func() error { m = core.New(ds); return nil })
		tr.Time("core.classes_build", req, s.sweepSpan, func() error { m.Classes(); return nil })
		if _, err := tr.Time("core.sweep", req, s.sweepSpan, func() error {
			_, err := m.ReachabilityRangeCtx(ctx, core.HierarchyFree, 0, ds.Graph.NumASes(), 0)
			return err
		}); err != nil {
			return err
		}
		if err := replayReads(m); err != nil {
			return err
		}
		prev, last = next, m
	}
	if last != nil {
		ci := last.Classes()
		rep.Layer["bgpsim.classes"] = float64(ci.NumClasses())
		rep.Layer["bgpsim.collapse_ratio"] = ci.CollapseRatio()
	}
	return nil
}
