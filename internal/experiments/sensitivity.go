package experiments

import (
	"fmt"
	"io"
	"math/rand"

	"flatnet/internal/astopo"
	"flatnet/internal/bgpsim"
	"flatnet/internal/core"
)

// SensitivityRow reports a cloud's hierarchy-free reachability when a
// fraction of its peer links is hidden from the analyst.
type SensitivityRow struct {
	Cloud string
	// MissFrac is the fraction of true peerings removed (simulated FNR).
	MissFrac float64
	// Reach and Pct are the metric on the degraded graph.
	Reach int
	Pct   float64
}

// sensitivityFractions sweeps the §5-reported FNR range and beyond.
var sensitivityFractions = []float64{0, 0.1, 0.2, 0.3, 0.5, 0.7, 0.9}

// Sensitivity quantifies the paper's §4.4 caveat — "it is likely that we
// underestimate the interconnectivity" — by removing random fractions of
// each cloud's peer links (simulating measurement false negatives) and
// recomputing hierarchy-free reachability. The paper's final methodology
// missed ~21% of neighbors; the sweep shows how much metric error that
// implies.
//
// The inner loop is a single-origin propagation (one cloud per degraded
// graph), so the bit-parallel all-AS engine does not apply. Each degraded
// graph is the 2020 graph spliced (astopo.Graph.Splice) to drop the
// cloud's hidden peer links: the frozen arrays are patched rather than
// the whole world refrozen, and the result is identical to freezing the
// filtered link list from scratch. Degraded pairs skip core.New entirely:
// the hierarchy-free mask (Tier-1s, Tier-2s, and the cloud's providers,
// cloud itself unmasked) is composed directly on one reused buffer and fed
// to a bare simulator over the degraded graph. The frac=0 row bypasses the
// rebuild entirely and reuses the headline env.M2020: it MUST equal the
// Fig. 2 hierarchy-free metric (the sensitivityBaseline invariant the
// tests pin), and sharing the Metrics makes that equality structural.
func Sensitivity(env *Env) ([]SensitivityRow, error) {
	in := env.In2020
	// One columnar view of the 2020 graph serves as every splice's base,
	// so its link columns are laid out once, not per degraded copy.
	f := in.Graph.Frozen()
	base, err := astopo.FromFrozen(f)
	if err != nil {
		return nil, err
	}
	mask := make([]bool, in.Graph.NumASes())
	var rows []SensitivityRow
	for _, cloud := range Clouds() {
		asn := in.Clouds[cloud]
		peers := in.Graph.Peers(asn)
		peerLink := make(map[astopo.ASN]astopo.Link, len(peers))
		for k, rel := range f.LinkRel {
			l := astopo.Link{A: f.LinkA[k], B: f.LinkB[k], Rel: rel}
			switch {
			case rel != astopo.P2P:
			case l.A == asn:
				peerLink[l.B] = l
			case l.B == asn:
				peerLink[l.A] = l
			}
		}
		// One permutation per cloud so removal sets nest: a higher miss
		// fraction always removes a superset, making the sweep monotone
		// by construction. The removal list grows incrementally with the
		// fraction instead of being rebuilt per pair.
		rng := rand.New(rand.NewSource(int64(asn)))
		perm := rng.Perm(len(peers))
		var hidden []astopo.Link
		for _, frac := range sensitivityFractions {
			for cut := int(frac * float64(len(peers))); len(hidden) < cut; {
				hidden = append(hidden, peerLink[peers[perm[len(hidden)]]])
			}
			var n int
			var total float64
			if len(hidden) == 0 {
				n, err = env.M2020.Reachability(asn, core.HierarchyFree)
				total = float64(in.Graph.NumASes() - 1)
			} else {
				var g *astopo.Graph
				if g, err = base.Splice(hidden, nil); err != nil {
					return nil, err
				}
				n, err = hierarchyFreeReach(g, asn, in.Tier1, in.Tier2, mask)
				total = float64(g.NumASes() - 1)
			}
			if err != nil {
				return nil, err
			}
			rows = append(rows, SensitivityRow{
				Cloud:    cloud,
				MissFrac: frac,
				Reach:    n,
				Pct:      100 * float64(n) / total,
			})
		}
	}
	return rows, nil
}

// hierarchyFreeReach computes core.Reachability(origin, HierarchyFree)
// over g without building a Metrics: the exclusion mask — the Tier-1 and
// Tier-2 sets plus the origin's transit providers, with the origin itself
// never masked — is composed on the caller's reusable buffer, replicating
// core.Mask's overlay semantics (asserted against core.New by the
// sensitivity tests).
func hierarchyFreeReach(g *astopo.Graph, origin astopo.ASN, tier1, tier2 astopo.ASSet, mask []bool) (int, error) {
	g.Freeze()
	n := g.NumASes()
	if cap(mask) < n {
		mask = make([]bool, n)
	}
	mask = mask[:n]
	for i := range mask {
		mask[i] = false
	}
	for a := range tier1 {
		if i, ok := g.Index(a); ok {
			mask[i] = true
		}
	}
	for a := range tier2 {
		if i, ok := g.Index(a); ok {
			mask[i] = true
		}
	}
	if oi, ok := g.Index(origin); ok {
		mask[oi] = false
		for _, p := range g.ProvidersOf(oi) {
			mask[p] = true
		}
	}
	return bgpsim.New(g).ReachabilityCount(bgpsim.Config{Origin: origin, Exclude: mask})
}

func runSensitivity(env *Env, w io.Writer) error {
	rows, err := Sensitivity(env)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "hierarchy-free reachability when a fraction of each cloud's peerings is invisible")
	fmt.Fprintln(w, "(the paper's final methodology missed ~21% of neighbors; §4.4's underestimation caveat)")
	fmt.Fprintf(w, "%-10s", "cloud \\ miss")
	for _, f := range sensitivityFractions {
		fmt.Fprintf(w, " %7.0f%%", 100*f)
	}
	fmt.Fprintln(w)
	var cur string
	for _, r := range rows {
		if r.Cloud != cur {
			if cur != "" {
				fmt.Fprintln(w)
			}
			cur = r.Cloud
			fmt.Fprintf(w, "%-10s", r.Cloud)
		}
		fmt.Fprintf(w, " %7.1f%%", r.Pct)
	}
	fmt.Fprintln(w)
	return nil
}

// helper used by tests: the zero-miss row must match the headline metric.
func sensitivityBaseline(rows []SensitivityRow, cloud string) (SensitivityRow, bool) {
	for _, r := range rows {
		if r.Cloud == cloud && r.MissFrac == 0 {
			return r, true
		}
	}
	return SensitivityRow{}, false
}
