package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"runtime"
	"time"

	"flatnet/internal/astopo"
	"flatnet/internal/bgpsim"
	"flatnet/internal/cluster"
	"flatnet/internal/core"
	"flatnet/internal/snapshot"
)

// cluster-fanout: a coordinator plus two in-process workers joined over
// loopback with cluster.Join, on the daemon's default pool settings,
// driven closed loop by one client. One cold /v1/sweep of each kind (the
// Fig. 2 set), then distinct seeded /v1/batch requests (alternating
// hierarchy-free and provider-free) and /v1/leak requests. It is the only
// workload that crosses the cluster layer: dispatch, wire, merge and
// hedging. Hierarchy-free batches are overhead-bound and provider-free
// ones engine-bound, so a gain in either shows separately.

const (
	batchOrigins = 2048
	clusterLeaks = 2000 // trials per /v1/leak
	workersN     = 2
)

// sweepKinds is the cold sweep order (the Fig. 2 set).
var sweepKinds = []core.Kind{core.ProviderFree, core.Tier1Free, core.HierarchyFree, core.Full}

type clusterNodes struct {
	coord   *node
	workers []*node
}

func (cn *clusterNodes) stop() {
	cn.coord.stop()
	for _, w := range cn.workers {
		w.stop()
	}
}

// startWorkers starts n workers over the snapshot and returns them with
// their addresses; each later joins a coordinator or a pool.
func startWorkers(path string, n int) ([]*node, error) {
	var ws []*node
	for i := 0; i < n; i++ {
		w, err := startNode(path, 2020)
		if err != nil {
			for _, x := range ws {
				x.stop()
			}
			return nil, err
		}
		ws = append(ws, w)
	}
	return ws, nil
}

func startCluster(ctx context.Context, path string) (*clusterNodes, error) {
	coord, err := startNode(path, 2020)
	if err != nil {
		return nil, err
	}
	ws, err := startWorkers(path, workersN)
	if err != nil {
		coord.stop()
		return nil, err
	}
	cn := &clusterNodes{coord: coord, workers: ws}
	jc := newClient(1)
	defer jc.CloseIdleConnections()
	for _, w := range ws {
		jr := cluster.JoinRequest{Addr: w.base, World: w.srv.WorldID(), Slots: runtime.GOMAXPROCS(0)}
		if _, err := cluster.Join(ctx, jc, coord.base, jr); err != nil {
			cn.stop()
			return nil, err
		}
	}
	return cn, nil
}

// clusterGen yields the closed loop's request stream: every third request
// a leak, the others batches alternating hierarchy-free / provider-free.
type clusterGen struct {
	rng  *rand.Rand
	asns []astopo.ASN
	i    int
}

func (cg *clusterGen) next() op {
	defer func() { cg.i++ }()
	if cg.i%3 == 2 {
		origin := cg.asns[cg.rng.Intn(len(cg.asns))]
		s := leakScenarios[cg.rng.Intn(len(leakScenarios))]
		seed := cg.rng.Int63n(1 << 31)
		p := fmt.Sprintf("/v1/leak?as=%d&scenario=%s&trials=%d&seed=%d", origin, s, clusterLeaks, seed)
		return op{Kind: "leak", Method: http.MethodGet, Path: p, Key: p, ClassKey: p, Origin: origin, Scenario: s, Seed: seed}
	}
	k := core.HierarchyFree
	if cg.i%3 == 1 {
		k = core.ProviderFree
	}
	perm := cg.rng.Perm(len(cg.asns))[:batchOrigins]
	origins := make([]astopo.ASN, len(perm))
	for j, p := range perm {
		origins[j] = cg.asns[p]
	}
	body, _ := json.Marshal(map[string]any{"as": origins, "kind": k.String()}) // ASN slices always marshal
	key := "/v1/batch\n" + string(body)
	return op{Kind: "batch-" + kindTag(k), Method: http.MethodPost, Path: "/v1/batch", Body: body,
		Key: key, ClassKey: key, RKind: k}
}

func kindTag(k core.Kind) string {
	switch k {
	case core.ProviderFree:
		return "pf"
	case core.Tier1Free:
		return "t1f"
	case core.HierarchyFree:
		return "hf"
	}
	return "full"
}

type batchBody struct {
	Kind    string `json:"kind"`
	Total   int    `json:"total"`
	Engine  string `json:"engine"`
	Results []struct {
		AS        astopo.ASN `json:"as"`
		Reachable int        `json:"reachable"`
	} `json:"results"`
}

// clusterPhase is one timed pass: the cold sweep set, then the closed loop.
type clusterPhase struct {
	sweepMS   []float64
	sweepSpan []int64
	ops       []op
	outs      []outcome
}

func runClusterFanout(ctx context.Context, cfg *Config) (*Report, error) {
	var wa worldAnswers
	if err := readGob(cfg.answersPath(), &wa); err != nil {
		return nil, err
	}
	n := len(wa.ASNs)
	asns := make([]astopo.ASN, n)
	for i, a := range wa.ASNs {
		asns[i] = astopo.ASN(a)
	}
	c := newClient(1)
	defer c.CloseIdleConnections()
	rep := newReport()

	setup := func() (*clusterNodes, error) {
		cn, err := startCluster(ctx, cfg.worldPath())
		if err != nil {
			return nil, err
		}
		// The first answer is a fanned-out batch (wide enough to shard).
		body, _ := json.Marshal(map[string]any{"as": asns[:128]})
		status, got, err := do(ctx, c, http.MethodPost, cn.coord.base+"/v1/batch", "", "application/json", body)
		if err == nil && status != http.StatusOK {
			err = fmt.Errorf("first /v1/batch: status %d", status)
		}
		if err == nil && !checkBatch(&wa, core.HierarchyFree, asns[:128], got) {
			err = fmt.Errorf("first /v1/batch: wrong answer")
		}
		if err != nil {
			cn.stop()
			return nil, err
		}
		return cn, nil
	}
	cn, setupS, err := timedSetups(cfg, setup, (*clusterNodes).stop)
	if err != nil {
		return nil, err
	}

	phase := func(cn *clusterNodes, tr *Tracer) (*clusterPhase, serverStats, serverStats, error) {
		ph := &clusterPhase{}
		before, err := fetchStats(ctx, c, cn.coord.base)
		if err != nil {
			return nil, before, before, err
		}
		for i, k := range sweepKinds {
			end := tr.Start("http.sweep", int64(-(i + 1)), 0)
			t0 := time.Now()
			counts, status, err := getWireCounts(ctx, c, cn.coord.base+"/v1/sweep?kind="+k.String(), n)
			ms := float64(time.Since(t0)) / 1e6
			ph.sweepSpan = append(ph.sweepSpan, end())
			rep.Attempted++
			if err != nil || status != http.StatusOK {
				rep.Failed++
				continue
			}
			ph.sweepMS = append(ph.sweepMS, ms)
			for j, v := range counts {
				if int32(v) != wa.Counts[k][j] {
					rep.wrongf("/v1/sweep?kind=%s: AS%d reachable %d, want %d", k, wa.ASNs[j], v, wa.Counts[k][j])
					break
				}
			}
		}
		gen := &clusterGen{rng: rand.New(rand.NewSource(cfg.Seed)), asns: asns}
		deadline := time.Now().Add(cfg.duration())
		for i := 0; i == 0 || time.Now().Before(deadline); i++ {
			o := gen.next()
			end := tr.Start("http."+o.Kind, int64(i+1), 0)
			t0 := time.Now()
			status, body, err := do(ctx, c, o.Method, cn.coord.base+o.Path, "", ctypeFor(o.Body), o.Body)
			ph.outs = append(ph.outs, outcome{Op: i, Latency: time.Since(t0), Status: status, Body: body, Err: err, Span: end()})
			ph.ops = append(ph.ops, o)
		}
		after, err := fetchStats(ctx, c, cn.coord.base)
		return ph, before, after, err
	}
	phA, _, _, err := phase(cn, nil)
	rss := peakRSSMB()
	cn.stop()
	if err != nil {
		return nil, err
	}
	var tr *Tracer
	var phB *clusterPhase
	if cfg.Trace {
		tr = newTracer()
		cnB, err := setup()
		if err != nil {
			return nil, err
		}
		var before, after serverStats
		phB, before, after, err = phase(cnB, tr)
		cnB.stop()
		if err != nil {
			return nil, err
		}
		statsLayers(rep, before, after)
	}

	// Verification: every batch answer value by value against reference
	// sweeps, and every body byte for byte against a fresh single-process
	// server's answer.
	ops, outs := phA.ops, phA.outs
	if phB != nil {
		ops = append(append([]op(nil), phA.ops...), phB.ops...)
		outs = append([]outcome(nil), phA.outs...)
		for _, o := range phB.outs {
			o.Op += len(phA.ops)
			outs = append(outs, o)
		}
	}
	keys, first := tally(rep, ops, outs)
	opByKey := map[string]*op{}
	for i := range ops {
		opByKey[ops[i].Key] = &ops[i]
	}
	for _, k := range keys {
		o := opByKey[k]
		if o.Kind == "leak" {
			continue
		}
		var req struct{ AS []astopo.ASN }
		_ = json.Unmarshal(o.Body, &req) // generated by clusterGen
		if !checkBatch(&wa, o.RKind, req.AS, first[k]) {
			rep.wrongf("%s batch of %d origins: answer differs from reference sweep", o.RKind, len(req.AS))
		}
	}
	if err := compareWithFreshServer(ctx, rep, cfg.worldPath(), 2020, keys, first); err != nil {
		return nil, err
	}

	isKind := func(k string) func(*op) bool { return func(o *op) bool { return o.Kind == k } }
	loopA := latencies(phA.ops, phA.outs, nil)
	leaks := latencies(phA.ops, phA.outs, isKind("leak"))
	rep.E2E["setup_s"] = setupS
	rep.E2E["p50_ms"] = median(loopA)
	rep.E2E["tail_ms"] = quantile(loopA, 0.9)
	rep.E2E["heavy_ms"] = sum(phA.sweepMS)
	rep.E2E["rss_peak_mb"] = rss
	rep.named("setup_s", setupS, "s")
	rep.named("sweep_s", sum(phA.sweepMS)/1e3, "s")
	rep.named("batch_hf_ms", median(latencies(phA.ops, phA.outs, isKind("batch-hf"))), "ms")
	rep.named("batch_pf_ms", median(latencies(phA.ops, phA.outs, isKind("batch-pf"))), "ms")
	rep.named("leak_p50_ms", median(leaks), "ms")
	rep.named("rss_peak_mb", rss, "MB")
	rep.named("samples", float64(len(phA.outs)), "count")
	keyShare, classShare := inputShares(rep, phA.ops)
	rep.input("origins_per_batch", batchOrigins, "count")
	rep.input("trials_per_leak", clusterLeaks, "count")

	if cfg.Trace {
		rep.Layer["loadgen.repeat_key_share"] = keyShare
		rep.Layer["loadgen.repeat_class_share"] = classShare
		rep.Layer["loadgen.origins_per_batch"] = batchOrigins
		rep.Layer["loadgen.trials_per_leak"] = clusterLeaks
		rep.Layer["trace.overhead_pct"] = overheadPct(loopA, latencies(phB.ops, phB.outs, nil))
		if err := replayCluster(ctx, cfg, rep, tr, phB); err != nil {
			return nil, err
		}
		setupLayers(rep, tr, cfg.worldPath(), 2020)
		spans := tr.Spans()
		rep.Layer["serve.sweep_self_ms"] = median(selfTimes(spans, "http.sweep"))
		rep.Layer["serve.batch_self_ms"] = median(append(selfTimes(spans, "http.batch-hf"), selfTimes(spans, "http.batch-pf")...))
		rep.Layer["serve.leak_self_ms"] = median(selfTimes(spans, "http.leak"))
		rep.Layer["cluster.dispatch_ms"] = median(tr.durations("cluster.dispatch"))
		rep.Layer["core.many_ms"] = median(tr.durations("core.many"))
		for _, k := range sweepKinds {
			rep.Layer["core.class_counts_"+kindTag(k)+"_ms"] = median(tr.durations("core.class_counts_" + kindTag(k)))
		}
		rep.Layer["bgpsim.expand_ms"] = median(tr.durations("bgpsim.expand"))
		rep.Layer["bgpsim.leak_prepass_ms"] = median(tr.durations("bgpsim.leak_prepass"))
		rep.Layer["bgpsim.leak_trials_ms"] = median(tr.durations("bgpsim.leak_trials"))
		rep.Layer["cluster.wire_encode_ms"] = median(tr.durations("cluster.wire_encode"))
		rep.Layer["cluster.wire_decode_ms"] = median(tr.durations("cluster.wire_decode"))
		if err := writeTrace(cfg, tr); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// checkBatch checks a /v1/batch body against the reference sweep of kind k.
func checkBatch(wa *worldAnswers, k core.Kind, origins []astopo.ASN, body []byte) bool {
	var bb batchBody
	if json.Unmarshal(body, &bb) != nil || bb.Kind != k.String() || bb.Total != len(wa.ASNs)-1 || len(bb.Results) != len(origins) {
		return false
	}
	for i, r := range bb.Results {
		want, ok := wa.count(origins[i], k)
		if !ok || r.AS != origins[i] || r.Reachable != want {
			return false
		}
	}
	return true
}

// replayCluster re-runs the traced phase's fan-outs as direct Pool calls
// against a fresh pool over two fresh workers (so no shard cache the HTTP
// phase filled is reused), and the computations behind them as direct
// core/bgpsim calls on a fresh core.Metrics.
func replayCluster(ctx context.Context, cfg *Config, rep *Report, tr *Tracer, ph *clusterPhase) error {
	rd, err := snapshot.Open(cfg.worldPath())
	if err != nil {
		return err
	}
	defer rd.Close()
	in := rd.Internet(2020)
	ds := core.Dataset{Graph: in.Graph, Tier1: in.Tier1, Tier2: in.Tier2}
	m := core.New(ds)
	ci := m.SweepClasses()
	nc := ci.NumClasses()
	rep.Layer["bgpsim.classes"] = float64(nc)
	rep.Layer["bgpsim.collapse_ratio"] = ci.CollapseRatio()

	ws, err := startWorkers(cfg.worldPath(), workersN)
	if err != nil {
		return err
	}
	defer func() {
		for _, w := range ws {
			w.stop()
		}
	}()
	pool := cluster.NewPool(cluster.PoolConfig{World: ws[0].srv.WorldID()})
	defer pool.Close()
	for _, w := range ws {
		pool.Register(w.base, runtime.GOMAXPROCS(0))
	}
	// Untimed warm-up: the first fan-outs build each worker's lazy state
	// (class index, engine pools, keep-alive connections), which the
	// traced phase's workers had already built by the time they served
	// the requests being replayed.
	warm := make([]uint32, 2*bgpsim.BatchLanes)
	for i := range warm {
		warm[i] = uint32(ds.Graph.ASNAt(i))
	}
	if _, err := pool.BatchCounts(ctx, warm, core.HierarchyFree.String()); err != nil {
		return err
	}
	if _, err := pool.LeakFracs(ctx, cluster.LeakQuery{Origin: warm[0], Scenario: leakScenarios[0], Trials: len(warm), Seed: 1}, len(warm)); err != nil {
		return err
	}

	for i, k := range sweepKinds {
		req, parent := int64(-(i + 1)), ph.sweepSpan[i]
		var classCounts []int
		if _, err := tr.Time("cluster.dispatch", req, parent, func() error {
			var err error
			classCounts, err = pool.ClassCounts(ctx, k.String(), nc)
			return err
		}); err != nil {
			return err
		}
		out := make([]int, ds.Graph.NumASes())
		tr.Time("bgpsim.expand", req, parent, func() error { ci.Expand(classCounts, out); return nil })
		var frame []byte
		tr.Time("cluster.wire_encode", req, 0, func() error { frame = cluster.AppendCounts(nil, out); return nil })
		if _, err := tr.Time("cluster.wire_decode", req, 0, func() error {
			if err := cluster.CheckCounts(frame, len(out)); err != nil {
				return err
			}
			return cluster.DecodeCountsInto(out, frame)
		}); err != nil {
			return err
		}
		if _, err := tr.Time("core.class_counts_"+kindTag(k), req, 0, func() error {
			_, err := m.ClassCountsRangeCtx(ctx, k, 0, nc, 0)
			return err
		}); err != nil {
			return err
		}
	}

	var uniq, trials float64
	replayed := map[string]int{}
	for j := range ph.outs {
		o := &ph.outs[j]
		q := &ph.ops[o.Op]
		if !o.ok() || replayed[q.Kind] >= 12 {
			continue
		}
		replayed[q.Kind]++
		req := int64(o.Op + 1)
		if q.Kind == "leak" {
			seed := q.Seed
			lq := cluster.LeakQuery{Origin: uint32(q.Origin), Scenario: q.Scenario, Trials: clusterLeaks, Seed: seed}
			if _, err := tr.Time("cluster.dispatch", req, o.Span, func() error {
				_, err := pool.LeakFracs(ctx, lq, len(bgpsim.SampleLeakers(ds.Graph, q.Origin, clusterLeaks, seed)))
				return err
			}); err != nil {
				return err
			}
			u, err := replayLeak(ctx, tr, m, q.Origin, q.Scenario, clusterLeaks, seed, req, 0)
			if err != nil {
				return err
			}
			uniq += u
			trials += clusterLeaks
			continue
		}
		var body struct{ AS []astopo.ASN }
		_ = json.Unmarshal(q.Body, &body) // generated by clusterGen
		raw := make([]uint32, len(body.AS))
		for i, a := range body.AS {
			raw[i] = uint32(a)
		}
		if _, err := tr.Time("cluster.dispatch", req, o.Span, func() error {
			_, err := pool.BatchCounts(ctx, raw, q.RKind.String())
			return err
		}); err != nil {
			return err
		}
		if _, err := tr.Time("core.many", req, 0, func() error {
			_, err := m.ReachabilityMany(ctx, body.AS, q.RKind)
			return err
		}); err != nil {
			return err
		}
	}
	if trials > 0 {
		rep.Layer["bgpsim.leak_unique_trial_ratio"] = uniq / trials
	}
	return nil
}
