package bgpfeed

import (
	"fmt"
	"hash/fnv"
	"reflect"
	"testing"

	"flatnet/internal/astopo"
	"flatnet/internal/bgpsim"
	"flatnet/internal/topogen"
)

// collectReference is Collect's original formulation, kept as the oracle
// for the vantage-restricted engine: one whole-graph tracked propagation
// per origin, each walked from every VP.
func collectReference(g *astopo.Graph, vps []astopo.ASN) (*View, error) {
	g.Freeze()
	vpIdx := make([]int32, 0, len(vps))
	for _, v := range vps {
		i, ok := g.Index(v)
		if !ok {
			return nil, fmt.Errorf("bgpfeed: VP AS%d not in graph", v)
		}
		vpIdx = append(vpIdx, int32(i))
	}
	origins := g.ASes()
	perOrigin := make([][][]astopo.ASN, len(origins))
	sim := bgpsim.New(g)
	for oi, o := range origins {
		res, err := sim.Run(bgpsim.Config{Origin: o, TrackNextHops: true})
		if err != nil {
			return nil, err
		}
		for k, vi := range vpIdx {
			if p := walkPath(g, res, vi, uint64(k)); p != nil {
				perOrigin[oi] = append(perOrigin[oi], p)
			}
		}
	}
	return assemble(g, vps, perOrigin)
}

// Collect must reproduce the whole-graph reference path for path, on
// generated worlds of several seeds and scales and on random VP sets that
// include stubs as well as transit networks.
func TestCollectMatchesReference(t *testing.T) {
	for _, tc := range []struct {
		scale float64
		seed  int64
		nVPs  int
	}{
		{0.005, 1, 5},
		{0.008, 2, 25},
		{0.01425, 20200901, 40},
	} {
		spec := topogen.Internet2020(tc.scale)
		spec.Seed = tc.seed
		in, err := topogen.Generate(spec)
		if err != nil {
			t.Fatal(err)
		}
		vps := SampleVPs(in.Graph.ASes(), tc.nVPs, tc.seed)
		got, err := Collect(in.Graph, vps)
		if err != nil {
			t.Fatal(err)
		}
		want, err := collectReference(in.Graph, vps)
		if err != nil {
			t.Fatal(err)
		}
		if len(want.Paths) == 0 {
			t.Fatalf("scale %g seed %d: reference collected no paths", tc.scale, tc.seed)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("scale %g seed %d: Collect differs from the reference (%d vs %d paths, %d vs %d links)",
				tc.scale, tc.seed, len(got.Paths), len(want.Paths), len(got.Links), len(want.Links))
		}
	}
}

// walkSeed hand-rolls FNV-64a over "<vp>/<origin>"; it must equal the
// fmt/hash.Hash formulation every feed path was originally seeded with.
func TestWalkSeedMatchesFNV(t *testing.T) {
	for _, c := range [][2]int32{{0, 0}, {0, 1}, {7, 0}, {39, 6947}, {123456, 2147483647}, {2147483647, 2147483647}} {
		h := fnv.New64a()
		fmt.Fprintf(h, "%d/%d", c[0], c[1])
		if got, want := walkSeed(c[0], c[1]), h.Sum64(); got != want {
			t.Fatalf("walkSeed(%d, %d) = %#x, fnv %#x", c[0], c[1], got, want)
		}
	}
}

func collectView(t testing.TB, scale float64, nVPs int) (*topogen.Internet, *View) {
	t.Helper()
	in, err := topogen.Generate(topogen.Internet2020(scale))
	if err != nil {
		t.Fatal(err)
	}
	// VPs: transit-class ASes, as with real collectors.
	var cands []astopo.ASN
	for i, a := range in.Graph.ASes() {
		switch in.ClassAt(i) {
		case topogen.ClassTransit, topogen.ClassTier2:
			cands = append(cands, a)
		}
	}
	vps := SampleVPs(cands, nVPs, 1)
	view, err := Collect(in.Graph, vps)
	if err != nil {
		t.Fatal(err)
	}
	return in, view
}

func TestCollectPathsValid(t *testing.T) {
	in, view := collectView(t, 0.01425, 10)
	if len(view.Paths) == 0 {
		t.Fatal("no paths")
	}
	vpSet := astopo.NewASSet(view.VPs...)
	for _, p := range view.Paths[:500] {
		if len(p) < 2 {
			t.Fatalf("degenerate path %v", p)
		}
		if !vpSet.Has(p[0]) {
			t.Fatalf("path %v does not start at a VP", p)
		}
		for i := 1; i < len(p); i++ {
			if _, ok := in.Graph.HasLink(p[i-1], p[i]); !ok {
				t.Fatalf("path %v uses nonexistent link", p)
			}
		}
	}
}

// The central bias: feeds see nearly all links of the hierarchy but only a
// small fraction of the clouds' peerings (§4.1 reports ~10-90% missed
// depending on the cloud).
func TestFeedMissesCloudPeering(t *testing.T) {
	in, view := collectView(t, 0.02138, 30)
	feed, err := view.BuildGraph()
	if err != nil {
		t.Fatal(err)
	}
	google := in.Clouds["Google"]
	truthN := len(in.Graph.Peers(google)) + len(in.Graph.Providers(google))
	feedN := 0
	if _, ok := feed.Index(google); ok {
		feedN = feed.Degree(google)
	}
	frac := float64(feedN) / float64(truthN)
	t.Logf("Google: feed sees %d of %d neighbors (%.2f)", feedN, truthN, frac)
	if frac > 0.45 {
		t.Errorf("feed sees %.2f of Google's neighbors; expected a large blind spot", frac)
	}
	// But the hierarchy is well covered: Tier-1 to Tier-2 links.
	t1 := astopo.ASN(3356)
	truthT1 := in.Graph.Degree(t1)
	feedT1 := 0
	if _, ok := feed.Index(t1); ok {
		feedT1 = feed.Degree(t1)
	}
	fracT1 := float64(feedT1) / float64(truthT1)
	t.Logf("Level 3: feed sees %d of %d neighbors (%.2f)", feedT1, truthT1, fracT1)
	if fracT1 < frac {
		t.Errorf("feed covers Level 3 (%.2f) worse than Google (%.2f)", fracT1, frac)
	}
	// c2p coverage overall must far exceed p2p coverage.
	cover := map[astopo.Rel]float64{}
	for _, rel := range []astopo.Rel{astopo.P2P, astopo.P2C} {
		var tot, vis int
		for _, l := range in.Graph.Links() {
			if l.Rel != rel {
				continue
			}
			tot++
			if _, ok := feed.HasLink(l.A, l.B); ok {
				vis++
			}
		}
		cover[rel] = float64(vis) / float64(tot)
	}
	t.Logf("visibility: c2p=%.2f p2p=%.2f", cover[astopo.P2C], cover[astopo.P2P])
	if cover[astopo.P2C] < 0.8 {
		t.Errorf("c2p visibility %.2f, want >= 0.8", cover[astopo.P2C])
	}
	if cover[astopo.P2P] > cover[astopo.P2C]/2 {
		t.Errorf("p2p visibility %.2f not clearly below c2p %.2f", cover[astopo.P2P], cover[astopo.P2C])
	}
}

func TestCollectErrors(t *testing.T) {
	in, _ := collectView(t, 0.01425, 2)
	if _, err := Collect(in.Graph, []astopo.ASN{999999999}); err == nil {
		t.Error("unknown VP accepted")
	}
}

func TestVisibleNeighbors(t *testing.T) {
	_, view := collectView(t, 0.01425, 5)
	vp := view.VPs[0]
	ns := view.VisibleNeighbors(vp)
	if len(ns) == 0 {
		t.Error("VP has no visible neighbors")
	}
	for i := 1; i < len(ns); i++ {
		if ns[i] < ns[i-1] {
			t.Error("neighbors not sorted")
		}
	}
}

func TestSampleVPsDeterministic(t *testing.T) {
	c := []astopo.ASN{1, 2, 3, 4, 5, 6}
	a := SampleVPs(c, 3, 9)
	b := SampleVPs(c, 3, 9)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("nondeterministic")
		}
	}
	if got := SampleVPs(c, 100, 9); len(got) != len(c) {
		t.Errorf("oversample returned %d", len(got))
	}
}
