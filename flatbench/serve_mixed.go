package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"strings"

	"flatnet/internal/astopo"
	"flatnet/internal/bgpsim"
	"flatnet/internal/cluster"
	"flatnet/internal/core"
	"flatnet/internal/snapshot"
)

// serve-mixed: one flatnetd serving the scale-1.0 2020 world from an mmap
// snapshot, driven open loop below saturation by the interactive mix —
// ~85% /v1/reach, ~10% /v1/reliance, ~5% /v1/leak — with Zipf-skewed
// origins. It exercises the result cache, singleflight, the slot
// semaphore, single-origin propagation and the leak pre-pass/replay, and
// none of cluster, wire or full sweeps.

const (
	serveRate   = 150.0 // requests per second, below saturation on 2 CPUs
	leakTrials  = 200
	relianceTop = 10
)

// leakScenarios are the paper's peer-locking scenarios (Figs. 7-10).
var leakScenarios = []string{"announce-all", "lock-t1", "lock-t1t2", "lock-all"}

var scenarioByName = map[string]bgpsim.LeakScenario{
	"announce-all": bgpsim.AnnounceAll,
	"lock-t1":      bgpsim.AnnounceAllLockT1,
	"lock-t1t2":    bgpsim.AnnounceAllLockT1T2,
	"lock-all":     bgpsim.AnnounceAllLockAll,
}

func serveMixedOps(seed int64, wa *worldAnswers, n int) []op {
	rng := rand.New(rand.NewSource(seed))
	asns := make([]astopo.ASN, len(wa.ASNs))
	for i, a := range wa.ASNs {
		asns[i] = astopo.ASN(a)
	}
	z := newZipf(rng, asns)
	classOf := func(a astopo.ASN) int32 {
		i, _ := wa.idx(a)
		return wa.Class[i]
	}
	// The mix is stratified: every block of 20 requests holds exactly 17
	// reach, 2 reliance and 1 leak queries in seeded order, so seeds vary
	// origins and arrival order but not the composition of a run.
	block := make([]string, 20)
	for i := range block {
		switch {
		case i < 17:
			block[i] = "reach"
		case i < 19:
			block[i] = "reliance"
		default:
			block[i] = "leak"
		}
	}
	ops := make([]op, n)
	for i := range ops {
		if i%len(block) == 0 {
			rng.Shuffle(len(block), func(a, b int) { block[a], block[b] = block[b], block[a] })
		}
		o := z.next()
		switch block[i%len(block)] {
		case "reach":
			k := kinds[rng.Intn(len(kinds))]
			ops[i] = op{Kind: "reach", Origin: o, RKind: k,
				Path:     fmt.Sprintf("/v1/reach?as=%d&kind=%s", o, k),
				ClassKey: fmt.Sprintf("reach|%d|%s", classOf(o), k)}
		case "reliance":
			ops[i] = op{Kind: "reliance", Origin: o, RKind: core.HierarchyFree,
				Path: fmt.Sprintf("/v1/reliance?as=%d&kind=%s&top=%d", o, core.HierarchyFree, relianceTop)}
		default:
			s := leakScenarios[rng.Intn(len(leakScenarios))]
			ops[i] = op{Kind: "leak", Origin: o, Scenario: s, Seed: int64(o),
				Path: fmt.Sprintf("/v1/leak?as=%d&scenario=%s&trials=%d", o, s, leakTrials)}
		}
		ops[i].Method = http.MethodGet
		ops[i].Key = ops[i].Path
		if ops[i].ClassKey == "" {
			ops[i].ClassKey = ops[i].Key
		}
	}
	return ops
}

type reachBody struct {
	AS        astopo.ASN `json:"as"`
	Kind      string     `json:"kind"`
	Reachable int        `json:"reachable"`
	Total     int        `json:"total"`
}

type relianceBody struct {
	AS  astopo.ASN `json:"as"`
	Top []struct {
		AS    astopo.ASN `json:"as"`
		Value float64    `json:"value"`
	} `json:"top"`
}

// firstReach times set-up's end: one /v1/reach answer, checked against
// the reference answers.
func firstReach(ctx context.Context, c *http.Client, base string, wa *worldAnswers) error {
	a := astopo.ASN(wa.ASNs[0])
	status, body, err := get(ctx, c, fmt.Sprintf("%s/v1/reach?as=%d", base, a))
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("first /v1/reach: status %d", status)
	}
	var rb reachBody
	if err := json.Unmarshal(body, &rb); err != nil {
		return err
	}
	if want, _ := wa.count(a, core.HierarchyFree); rb.Reachable != want {
		return fmt.Errorf("first /v1/reach: AS%d reachable %d, want %d", a, rb.Reachable, want)
	}
	return nil
}

func runServeMixed(ctx context.Context, cfg *Config) (*Report, error) {
	var wa worldAnswers
	if err := readGob(cfg.answersPath(), &wa); err != nil {
		return nil, err
	}
	c := newClient(clientConns)
	defer c.CloseIdleConnections()
	setup := func() (*node, error) {
		n, err := startNode(cfg.worldPath(), 2020)
		if err != nil {
			return nil, err
		}
		if err := firstReach(ctx, c, n.base, &wa); err != nil {
			n.stop()
			return nil, err
		}
		return n, nil
	}
	nd, setupS, err := timedSetups(cfg, setup, (*node).stop)
	if err != nil {
		return nil, err
	}
	// Class keys come from the preparation's answers: no reference
	// instance is live in the measured process before its peak RSS is read.
	ops := serveMixedOps(cfg.Seed, &wa, int(serveRate*cfg.Seconds))

	rep := newReport()
	phase := func(nd *node, tr *Tracer) ([]outcome, serverStats, serverStats, error) {
		before, err := fetchStats(ctx, c, nd.base)
		if err != nil {
			return nil, before, before, err
		}
		outs := openLoop(ctx, c, nd.base, ops, serveRate, clientConns, tr)
		after, err := fetchStats(ctx, c, nd.base)
		return outs, before, after, err
	}
	outsA, _, _, err := phase(nd, nil)
	rss := peakRSSMB()
	nd.stop()
	if err != nil {
		return nil, err
	}
	all := outsA
	var tr *Tracer
	var outsB []outcome
	if cfg.Trace {
		tr = newTracer()
		ndB, err := setup()
		if err != nil {
			return nil, err
		}
		var before, after serverStats
		outsB, before, after, err = phase(ndB, tr)
		ndB.stop()
		if err != nil {
			return nil, err
		}
		statsLayers(rep, before, after)
		all = append(append([]outcome(nil), outsA...), outsB...)
	}

	// Verification: every distinct answer against a fresh, uncached
	// computation — reach against reference sweeps, reliance against a
	// fresh core.Metrics, leak bodies against a fresh single-process server.
	// The reference instance has its own mapping, opened after each
	// phase's server was stopped (and unmapped).
	refRd, err := snapshot.Open(cfg.worldPath())
	if err != nil {
		return nil, err
	}
	defer refRd.Close()
	in := refRd.Internet(2020)
	g := in.Graph
	ref := core.New(core.Dataset{Graph: g, Tier1: in.Tier1, Tier2: in.Tier2})
	keys, first := tally(rep, ops, all)
	opByKey := map[string]*op{}
	for i := range ops {
		opByKey[ops[i].Key] = &ops[i]
	}
	var leakKeys []string
	for _, k := range keys {
		o := opByKey[k]
		switch o.Kind {
		case "reach":
			var rb reachBody
			want, _ := wa.count(o.Origin, o.RKind)
			if err := json.Unmarshal(first[k], &rb); err != nil || rb.Reachable != want || rb.Total != g.NumASes()-1 || rb.Kind != o.RKind.String() {
				rep.wrongf("%s: got %s, want reachable %d", k, first[k], want)
			}
		case "reliance":
			var rb relianceBody
			want, err := ref.TopRelianceCtx(ctx, o.Origin, o.RKind, relianceTop)
			ok := err == nil && json.Unmarshal(first[k], &rb) == nil && len(rb.Top) == len(want) && rb.AS == o.Origin
			for i := 0; ok && i < len(want); i++ {
				ok = rb.Top[i].AS == want[i].AS && rb.Top[i].Value == want[i].Value
			}
			if !ok {
				rep.wrongf("%s: reliance differs from a direct core call", k)
			}
		case "leak":
			leakKeys = append(leakKeys, k)
		}
	}
	if err := compareWithFreshServer(ctx, rep, cfg.worldPath(), 2020, leakKeys, first); err != nil {
		return nil, err
	}

	keyShare, classShare := inputShares(rep, ops)
	rep.input("trials_per_leak", leakTrials, "count")
	rep.input("rate", serveRate, "1/s")
	rep.input("lag_p99_ms", lagP99(outsA), "ms")
	isKind := func(k string) func(*op) bool { return func(o *op) bool { return o.Kind == k } }
	reachA := latencies(ops, outsA, isKind("reach"))
	leakA := latencies(ops, outsA, isKind("leak"))
	allA := latencies(ops, outsA, nil)
	rep.E2E["setup_s"] = setupS
	rep.E2E["p50_ms"] = median(allA)
	rep.E2E["tail_ms"] = quantile(allA, 0.99)
	rep.E2E["heavy_ms"] = median(leakA)
	rep.E2E["rss_peak_mb"] = rss
	rep.named("setup_s", setupS, "s")
	rep.named("reach_p50_ms", median(reachA), "ms")
	rep.named("reach_p99_ms", quantile(reachA, 0.99), "ms")
	rep.named("reliance_p50_ms", median(latencies(ops, outsA, isKind("reliance"))), "ms")
	rep.named("leak_p50_ms", median(leakA), "ms")
	rep.named("rss_peak_mb", rss, "MB")
	rep.named("samples", float64(len(outsA)), "count")

	if cfg.Trace {
		rep.Layer["loadgen.lag_p99_ms"] = lagP99(outsB)
		rep.Layer["loadgen.repeat_key_share"] = keyShare
		rep.Layer["loadgen.repeat_class_share"] = classShare
		rep.Layer["loadgen.trials_per_leak"] = leakTrials
		rep.Layer["trace.overhead_pct"] = overheadPct(allA, latencies(ops, outsB, nil))
		if err := replayServeMixed(ctx, cfg, rep, tr, ops, outsB); err != nil {
			return nil, err
		}
		setupLayers(rep, tr, cfg.worldPath(), 2020)
		for _, name := range []string{"reach", "reliance", "leak"} {
			rep.Layer["serve."+name+"_self_ms"] = median(selfTimes(tr.Spans(), "http."+name))
		}
		rep.Layer["core.reach_ms"] = median(tr.durations("core.reach"))
		rep.Layer["core.reliance_ms"] = median(tr.durations("core.reliance"))
		rep.Layer["bgpsim.leak_prepass_ms"] = median(tr.durations("bgpsim.leak_prepass"))
		rep.Layer["bgpsim.leak_trials_ms"] = median(tr.durations("bgpsim.leak_trials"))
		if err := writeTrace(cfg, tr); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// compareWithFreshServer re-asks every listed query of a fresh
// single-process server over the same snapshot and requires byte-identical
// bodies.
func compareWithFreshServer(ctx context.Context, rep *Report, path string, year int, keys []string, got map[string][]byte) error {
	if len(keys) == 0 {
		return nil
	}
	nd, err := startNode(path, year)
	if err != nil {
		return err
	}
	defer nd.stop()
	c := newClient(clientConns)
	defer c.CloseIdleConnections()
	for _, k := range keys {
		method, p, body := splitKey(k)
		status, want, err := do(ctx, c, method, nd.base+p, "", ctypeFor(body), body)
		if err != nil || status != http.StatusOK {
			return fmt.Errorf("reference server: %s: status %d: %v", p, status, err)
		}
		if string(want) != string(got[k]) {
			rep.wrongf("%s: body differs from a single-process server's", p)
		}
	}
	return nil
}

// Keys of POST requests carry their body after a newline.
func splitKey(k string) (method, path string, body []byte) {
	if i := strings.IndexByte(k, '\n'); i >= 0 {
		return http.MethodPost, k[:i], []byte(k[i+1:])
	}
	return http.MethodGet, k, nil
}

// replayServeMixed re-runs, on fresh instances, the layer calls behind the
// traced phase's computing requests: the first request of each reach
// (class, kind), each reliance key and each leak configuration. Each
// direct-call span is a child of its HTTP span.
func replayServeMixed(ctx context.Context, cfg *Config, rep *Report, tr *Tracer, ops []op, outs []outcome) error {
	rd, err := snapshot.Open(cfg.worldPath())
	if err != nil {
		return err
	}
	defer rd.Close()
	in := rd.Internet(2020)
	g := in.Graph
	m := core.New(core.Dataset{Graph: g, Tier1: in.Tier1, Tier2: in.Tier2})
	ci := m.SweepClasses()
	rep.Layer["bgpsim.classes"] = float64(ci.NumClasses())
	rep.Layer["bgpsim.collapse_ratio"] = ci.CollapseRatio()
	seen := map[string]bool{}
	var uniq, trials float64
	counts := map[string]int{}
	for i := range outs {
		o := &outs[i]
		q := &ops[o.Op]
		if !o.ok() || seen[q.ClassKey] || counts[q.Kind] >= 200 {
			continue
		}
		seen[q.ClassKey] = true
		counts[q.Kind]++
		req := int64(o.Op + 1)
		switch q.Kind {
		case "reach":
			_, err = tr.Time("core.reach", req, o.Span, func() error {
				_, err := m.ReachabilityCtx(ctx, q.Origin, q.RKind)
				return err
			})
		case "reliance":
			_, err = tr.Time("core.reliance", req, o.Span, func() error {
				_, err := m.TopRelianceCtx(ctx, q.Origin, q.RKind, relianceTop)
				return err
			})
		case "leak":
			var u float64
			u, err = replayLeak(ctx, tr, m, q.Origin, q.Scenario, leakTrials, q.Seed, req, o.Span)
			uniq += u
			trials += leakTrials
		}
		if err != nil {
			return err
		}
	}
	if trials > 0 {
		rep.Layer["bgpsim.leak_unique_trial_ratio"] = uniq / trials
	}
	return nil
}

// replayLeak runs one /v1/leak computation directly: the leak-free
// pre-pass, then the trial replay on a clone, as the serve layer does. It
// returns how many of the sampled leakers fall in distinct classes.
func replayLeak(ctx context.Context, tr *Tracer, m *core.Metrics, origin astopo.ASN, scenario string, trials int, seed, req, parent int64) (float64, error) {
	ds := m.Dataset()
	ci := m.SweepClasses()
	var sw *bgpsim.LeakSweep
	_, err := tr.Time("bgpsim.leak_prepass", req, parent, func() error {
		cfg := bgpsim.ScenarioConfig(ds.Graph, origin, ds.Tier1, ds.Tier2, scenarioByName[scenario])
		var err error
		sw, err = bgpsim.NewLeakSweep(ds.Graph, cfg)
		if err == nil {
			sw.SetClasses(ci)
		}
		return err
	})
	if err != nil {
		return 0, err
	}
	leakers := bgpsim.SampleLeakers(ds.Graph, origin, trials, seed)
	_, err = tr.Time("bgpsim.leak_trials", req, parent, func() error {
		_, err := sw.Clone().TrialsN(ctx, leakers, nil, 0)
		return err
	})
	classes := map[int32]bool{}
	for _, l := range leakers {
		i, _ := ds.Graph.Index(l)
		classes[ci.ClassOf(i)] = true
	}
	return float64(len(classes)), err
}

// setupLayers times, on fresh instances, the layer calls a server's
// set-up makes: opening the snapshot, the dataset hash, building the
// metrics and the class index.
func setupLayers(rep *Report, tr *Tracer, path string, year int) {
	var rd *snapshot.Reader
	ms, err := tr.Time("snapshot.open", 0, 0, func() error {
		var err error
		rd, err = snapshot.Open(path)
		return err
	})
	if err != nil {
		return
	}
	defer rd.Close()
	rep.Layer["snapshot.open_ms"] = ms
	in := rd.Internet(year)
	ds := core.Dataset{Graph: in.Graph, Tier1: in.Tier1, Tier2: in.Tier2}
	rep.Layer["cluster.dataset_hash_ms"], _ = tr.Time("cluster.dataset_hash", 0, 0, func() error {
		cluster.DatasetHash(ds.Graph, ds.Tier1, ds.Tier2)
		return nil
	})
	var m *core.Metrics
	rep.Layer["core.new_ms"], _ = tr.Time("core.new", 0, 0, func() error { m = core.New(ds); return nil })
	rep.Layer["core.classes_build_ms"], _ = tr.Time("core.classes_build", 0, 0, func() error { m.Classes(); return nil })
}
