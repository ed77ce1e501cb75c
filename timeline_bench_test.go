package flatnet_bench

import (
	"context"
	"sync"
	"testing"

	"flatnet/internal/astopo"
	"flatnet/internal/core"
	"flatnet/internal/experiments"
	"flatnet/internal/topogen"
)

// Longitudinal benchmarks: the incremental recompute engine behind
// `flatnet timeline` and POST /v1/evolve. BenchmarkEvolveDelta pins the
// headline claim — evolving an all-AS count vector across a single-link
// delta must beat a fresh full sweep by a wide margin — and
// BenchmarkTimelineSeries times the whole 2015–2025 fold.

// singleLinkWorlds derives a "next" dataset from ds by adding one P2P
// link between two unlinked stub ASes — the smallest possible structural
// delta, and the case incremental recomputation exists for.
func singleLinkWorlds(b *testing.B, ds core.Dataset) (core.Dataset, core.EvolveDelta) {
	b.Helper()
	g := ds.Graph
	n := g.NumASes()
	stub := func(a astopo.ASN) bool {
		return !ds.Tier1.Has(a) && !ds.Tier2.Has(a) && len(g.Customers(a)) == 0
	}
	var la, lb astopo.ASN
	found := false
	for i := n - 1; i >= 1 && !found; i-- {
		a := g.ASNAt(i)
		if !stub(a) {
			continue
		}
		for j := i - 1; j >= 0; j-- {
			c := g.ASNAt(j)
			if !stub(c) {
				continue
			}
			if _, ok := g.HasLink(a, c); !ok {
				la, lb, found = a, c, true
				break
			}
		}
	}
	if !found {
		b.Fatal("no unlinked stub pair in the benchmark world")
	}
	link := astopo.Link{A: la, B: lb, Rel: astopo.P2P}
	links := append(append([]astopo.Link(nil), g.Links()...), link)
	ng := astopo.NewGraph(n, len(links))
	for _, l := range links {
		ng.MustAddLink(l.A, l.B, l.Rel)
	}
	return core.Dataset{Graph: ng, Tier1: ds.Tier1, Tier2: ds.Tier2},
		core.EvolveDelta{AddedLinks: []astopo.Link{link}}
}

// benchEvolveDelta measures both sides of the incremental-vs-full trade
// on one dataset: "incremental" evolves the previous world's count vector
// across the single-link delta, "full" re-sweeps the next world from
// scratch. Both sub-benchmarks produce the identical count vector (the
// engine is trial-exact), so ns/op and ns/AS compare like for like.
func benchEvolveDelta(b *testing.B, prev core.Dataset) {
	ctx := context.Background()
	next, delta := singleLinkWorlds(b, prev)
	prevM, nextM := core.New(prev), core.New(next)
	n := prev.Graph.NumASes()
	prevCounts, err := prevM.ReachabilityRangeCtx(ctx, core.HierarchyFree, 0, n, 0)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("incremental", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_, stats, err := core.EvolveCounts(ctx, prevM, nextM, core.HierarchyFree, prevCounts, delta)
			if err != nil {
				b.Fatal(err)
			}
			if stats.FullSweep {
				b.Fatalf("single-link delta fell back to a full sweep: %+v", stats)
			}
		}
		reportNsPerAS(b, n)
	})
	b.Run("full", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := nextM.ReachabilityRangeCtx(ctx, core.HierarchyFree, 0, next.Graph.NumASes(), 0); err != nil {
				b.Fatal(err)
			}
		}
		reportNsPerAS(b, n)
	})
}

func BenchmarkEvolveDelta(b *testing.B) {
	e := benchEnv(b)
	benchEvolveDelta(b, core.Dataset{Graph: e.In2020.Graph, Tier1: e.In2020.Tier1, Tier2: e.In2020.Tier2})
}

// BenchmarkEvolveDeltaFullScale pins the trade at the paper's true scale
// (69,488 ASes): this is where the acceptance bar lives — incremental
// must beat full by at least 5x on a single-link delta.
func BenchmarkEvolveDeltaFullScale(b *testing.B) {
	e := fullScaleEnv(b)
	benchEvolveDelta(b, core.Dataset{Graph: e.In2020.Graph, Tier1: e.In2020.Tier1, Tier2: e.In2020.Tier2})
}

var (
	timelineOnce sync.Once
	timelineErr  error
)

// BenchmarkTimelineSeries folds the full 2015–2025 preset series — eleven
// worlds, ten growth deltas, one bootstrap sweep plus ten evolved steps —
// at the benchmark scale. One op is the whole series, i.e. everything
// `flatnet timeline report` does before printing.
func BenchmarkTimelineSeries(b *testing.B) {
	// Fail fast (outside the timer) if the series itself is broken.
	timelineOnce.Do(func() { _, timelineErr = topogen.GenerateYear(topogen.TimelineFirstYear, benchScale) })
	if timelineErr != nil {
		b.Fatal(timelineErr)
	}
	b.ResetTimer()
	var nASes int
	for i := 0; i < b.N; i++ {
		res, err := experiments.TimelineAt(benchScale)
		if err != nil {
			b.Fatal(err)
		}
		nASes = res.Rows[len(res.Rows)-1].ASes
	}
	reportNsPerAS(b, nASes)
}

// BenchmarkApplyDelta times one growth step's structural apply (2019 ->
// 2020) at the benchmark scale: splicing the frozen graph, merging the
// annotation table, extending the IXPs. ns/link normalises by the new
// world's link count.
func BenchmarkApplyDelta(b *testing.B) {
	prev, err := topogen.GenerateYear(2019, benchScale)
	if err != nil {
		b.Fatal(err)
	}
	d, err := topogen.EvolveStep(prev, 2020, benchScale)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var links int
	for i := 0; i < b.N; i++ {
		next, err := topogen.ApplyDelta(prev, d)
		if err != nil {
			b.Fatal(err)
		}
		links = next.Graph.NumLinks()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(links), "ns/link")
}
