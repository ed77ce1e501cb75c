package astopo

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// randomTiered builds a random three-tier topology on even ASNs (so odd
// ASNs are free to be inserted mid-order): a Tier-1 peering clique, every
// lower AS buying transit from one to three ASes of the tier above, and
// random peerings within and across the lower tiers. The link order is
// shuffled so rows interleave.
func randomTiered(rng *rand.Rand, n int) []Link {
	asn := func(i int) ASN { return ASN(2 * (i + 1)) }
	nT1 := 3 + rng.Intn(3)
	nT2 := n / 5
	seen := map[[2]ASN]bool{}
	var links []Link
	add := func(a, b ASN, rel Rel) {
		if a == b || seen[canonPair(a, b)] {
			return
		}
		seen[canonPair(a, b)] = true
		links = append(links, Link{A: a, B: b, Rel: rel})
	}
	for i := 0; i < nT1; i++ {
		for j := i + 1; j < nT1; j++ {
			add(asn(i), asn(j), P2P)
		}
	}
	for i := nT1; i < n; i++ {
		lo, hi := 0, nT1
		if i >= nT1+nT2 {
			lo, hi = nT1, nT1+nT2
		}
		for k := 1 + rng.Intn(3); k > 0; k-- {
			add(asn(lo+rng.Intn(hi-lo)), asn(i), P2C)
		}
	}
	for k := rng.Intn(2 * n); k > 0; k-- {
		a, b := nT1+rng.Intn(n-nT1), nT1+rng.Intn(n-nT1)
		if rng.Intn(2) == 0 {
			a, b = b, a
		}
		add(asn(a), asn(b), P2P)
	}
	rng.Shuffle(len(links), func(i, j int) { links[i], links[j] = links[j], links[i] })
	return links
}

// randomEdit draws a splice over links: random removals including every
// link of a few ASes (so they drop out), additions between existing ASes,
// to fresh ASNs below, between and above the existing ones, and at least
// one removed link re-added with a possibly different relationship.
func randomEdit(rng *rand.Rand, links []Link) (removed, added []Link) {
	taken := map[[2]ASN]bool{}
	for _, l := range links {
		taken[canonPair(l.A, l.B)] = true
	}
	var nodes []ASN
	for _, l := range links {
		nodes = append(nodes, l.A, l.B)
	}
	slices.Sort(nodes)
	nodes = slices.Compact(nodes)
	victims := map[ASN]bool{}
	for k := rng.Intn(4); k > 0; k-- {
		victims[nodes[rng.Intn(len(nodes))]] = true
	}
	for _, l := range links {
		if victims[l.A] || victims[l.B] || rng.Intn(10) == 0 {
			removed = append(removed, l)
		}
	}
	rng.Shuffle(len(removed), func(i, j int) { removed[i], removed[j] = removed[j], removed[i] })
	for _, l := range removed {
		delete(taken, canonPair(l.A, l.B))
	}
	rel := func() Rel {
		if rng.Intn(2) == 0 {
			return P2P
		}
		return P2C
	}
	add := func(a, b ASN, r Rel) {
		if a != b && !taken[canonPair(a, b)] {
			taken[canonPair(a, b)] = true
			added = append(added, Link{A: a, B: b, Rel: r})
		}
	}
	if len(removed) > 0 {
		l := removed[rng.Intn(len(removed))]
		if rng.Intn(2) == 0 {
			add(l.A, l.B, l.Rel)
		} else {
			add(l.B, l.A, rel())
		}
	}
	last := nodes[len(nodes)-1]
	for k := rng.Intn(len(links)/5 + 2); k > 0; k-- {
		a := nodes[rng.Intn(len(nodes))]
		var b ASN
		switch rng.Intn(4) {
		case 0:
			b = ASN(2*rng.Intn(int(last)/2) + 1) // fresh, mid-order
		case 1:
			b = last + ASN(1+rng.Intn(50)) // fresh, past the end
		default:
			b = nodes[rng.Intn(len(nodes))]
		}
		if rng.Intn(2) == 0 {
			a, b = b, a
		}
		add(a, b, rel())
	}
	if rng.Intn(3) == 0 {
		add(1, nodes[0], P2C) // fresh, before the first AS
	}
	return removed, added
}

// spliceOracle is the definition Splice must reproduce: the kept links in
// order, then the additions, frozen from scratch.
func spliceOracle(links, removed, added []Link) *Graph {
	gone := map[Link]bool{}
	for _, l := range removed {
		gone[l] = true
	}
	var out []Link
	for _, l := range links {
		if !gone[l] {
			out = append(out, l)
		}
	}
	g := FromLinks(append(out, added...))
	g.Freeze()
	return g
}

// cloneFrozen deep-copies frozen arrays, so a later comparison can catch
// writes through shared backing memory.
func cloneFrozen(f Frozen) Frozen {
	return Frozen{
		Nodes:   slices.Clone(f.Nodes),
		ProvOff: slices.Clone(f.ProvOff), CustOff: slices.Clone(f.CustOff), PeerOff: slices.Clone(f.PeerOff),
		Arena: slices.Clone(f.Arena),
		LinkA: slices.Clone(f.LinkA), LinkB: slices.Clone(f.LinkB), LinkRel: slices.Clone(f.LinkRel),
	}
}

func TestSpliceMatchesFreezeRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 200; trial++ {
		links := randomTiered(rng, 8+rng.Intn(120))
		g := FromLinks(slices.Clone(links))
		if trial%2 == 1 {
			// Borrowed columns, as a snapshot-backed world holds them.
			var err error
			if g, err = FromFrozen(g.Frozen()); err != nil {
				t.Fatal(err)
			}
		}
		before := cloneFrozen(g.Frozen())
		// Chain a few splices so spliced graphs are spliced again.
		for step := 0; step < 3; step++ {
			removed, added := randomEdit(rng, links)
			got, err := g.Splice(removed, added)
			if err != nil {
				t.Fatalf("trial %d step %d: %v", trial, step, err)
			}
			want := spliceOracle(links, removed, added)
			if !reflect.DeepEqual(got.Frozen(), want.Frozen()) {
				t.Fatalf("trial %d step %d: spliced arrays differ from a fresh freeze\n got %+v\nwant %+v",
					trial, step, got.Frozen(), want.Frozen())
			}
			if !reflect.DeepEqual(got.Links(), want.Links()) {
				t.Fatalf("trial %d step %d: spliced link list differs", trial, step)
			}
			if !reflect.DeepEqual(g.Frozen(), before) {
				t.Fatalf("trial %d step %d: Splice modified its receiver", trial, step)
			}
			g, links = got, want.Links()
			before = cloneFrozen(g.Frozen())
		}
	}
}

func TestSpliceEdgeCases(t *testing.T) {
	g := buildTestGraph(t)
	links := slices.Clone(g.Links())
	for _, c := range []struct {
		name           string
		removed, added []Link
	}{
		{"no-op", nil, nil},
		{"remove everything", links, nil},
		{"remove everything, add back reversed", links, []Link{{A: 12, B: 1, Rel: P2C}, {A: 2, B: 1, Rel: P2P}}},
		{"last link of an AS", []Link{{A: 201, B: 202, Rel: P2P}}, nil},
		{"re-add as peer", []Link{{A: 1, B: 11, Rel: P2C}}, []Link{{A: 11, B: 1, Rel: P2P}}},
		{"fresh ASes only", nil, []Link{{A: 150, B: 7, Rel: P2C}, {A: 7, B: 1000, Rel: P2P}, {A: 3, B: 150, Rel: P2P}}},
	} {
		got, err := g.Splice(c.removed, c.added)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		want := spliceOracle(links, c.removed, c.added)
		if !reflect.DeepEqual(got.Frozen(), want.Frozen()) {
			t.Errorf("%s: got %+v, want %+v", c.name, got.Frozen(), want.Frozen())
		}
	}
}

func TestSpliceFailsClosed(t *testing.T) {
	g := buildTestGraph(t)
	p2p := Link{A: 1, B: 2, Rel: P2P}
	p2c := Link{A: 1, B: 11, Rel: P2C}
	for _, c := range []struct {
		name           string
		removed, added []Link
	}{
		{"removal listed twice", []Link{p2p, p2p}, nil},
		{"removal not in graph", []Link{{A: 1, B: 13, Rel: P2C}}, nil},
		{"removal of an unknown AS", []Link{{A: 1, B: 999, Rel: P2P}}, nil},
		{"peer removal in the wrong order", []Link{{A: 2, B: 1, Rel: P2P}}, nil},
		{"transit removal reversed", []Link{{A: 11, B: 1, Rel: P2C}}, nil},
		{"removal with the wrong relationship", []Link{{A: 1, B: 11, Rel: P2P}}, nil},
		{"removal as c2p", []Link{{A: 11, B: 1, Rel: C2P}}, nil},
		{"self link", nil, []Link{{A: 5, B: 5, Rel: P2P}}},
		{"c2p addition", nil, []Link{{A: 1, B: 13, Rel: C2P}}},
		{"invalid relationship", nil, []Link{{A: 1, B: 13, Rel: Rel(7)}}},
		{"addition of an existing link", nil, []Link{p2c}},
		{"addition of an existing link reversed", nil, []Link{{A: 2, B: 1, Rel: P2C}}},
		{"addition listed twice", nil, []Link{{A: 1, B: 13, Rel: P2C}, {A: 1, B: 13, Rel: P2C}}},
		{"addition twice across orientations", nil, []Link{{A: 1, B: 500, Rel: P2P}, {A: 500, B: 1, Rel: P2C}}},
		{"re-added twice", []Link{p2c}, []Link{p2c, {A: 11, B: 1, Rel: P2P}}},
	} {
		if _, err := g.Splice(c.removed, c.added); err == nil {
			t.Errorf("%s: Splice accepted it", c.name)
		}
	}
	if _, err := g.Splice([]Link{p2c}, []Link{p2c}); err != nil {
		t.Errorf("re-adding a removed link: %v", err)
	}
}

// TestHasLinkFrozenMatchesPairIndex checks the CSR-row answer of a frozen
// graph against the pair-index answer of an unfrozen copy for every
// ordered pair, unknown ASNs included.
func TestHasLinkFrozenMatchesPairIndex(t *testing.T) {
	unfrozen := buildTestGraph(t)
	frozen := FromLinks(slices.Clone(unfrozen.Links()))
	frozen.Freeze()
	asns := append(slices.Clone(frozen.ASes()), 0, 3, 999)
	for _, a := range asns {
		for _, b := range asns {
			wantRel, wantOK := unfrozen.HasLink(a, b)
			gotRel, gotOK := frozen.HasLink(a, b)
			if gotRel != wantRel || gotOK != wantOK {
				t.Errorf("HasLink(%d,%d) = %v,%v on the frozen graph, %v,%v from the pair index", a, b, gotRel, gotOK, wantRel, wantOK)
			}
		}
	}
	if frozen.linkSet != nil {
		t.Error("frozen HasLink built the whole-graph pair index")
	}
}
