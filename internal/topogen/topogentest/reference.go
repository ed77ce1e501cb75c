// Package topogentest holds test oracles for package topogen. Import it
// from tests only.
package topogentest

import (
	"fmt"
	"strconv"

	"flatnet/internal/astopo"
	"flatnet/internal/geo"
	"flatnet/internal/topogen"
)

// ApplyDeltaReference is the straightforward definition of
// topogen.ApplyDelta, kept as its oracle: the base link list minus the
// removals, plus the additions, frozen from scratch, and the annotation
// table rebuilt through per-AS maps. ApplyDelta must produce an identical
// world (graph arrays, annotations, IXPs) whenever it succeeds. It checks
// less than ApplyDelta — self links and invalid relationships in the
// additions pass here — so ApplyDelta may fail where it succeeds, never
// the reverse.
func ApplyDeltaReference(prev *topogen.Internet, d *topogen.GrowthDelta) (*topogen.Internet, error) {
	fromYear, err := strconv.Atoi(prev.Spec.Name)
	if err != nil {
		return nil, fmt.Errorf("topogen: spec %q is not a timeline year", prev.Spec.Name)
	}
	if d.FromYear != fromYear {
		return nil, fmt.Errorf("topogen: delta %d->%d does not apply to a %d world", d.FromYear, d.ToYear, fromYear)
	}
	if d.ToYear != d.FromYear+1 {
		return nil, fmt.Errorf("topogen: delta %d->%d is not a single-year step", d.FromYear, d.ToYear)
	}
	spec, err := topogen.SpecForYear(d.ToYear, d.Scale)
	if err != nil {
		return nil, err
	}

	removed := make(map[astopo.Link]bool, len(d.RemovedLinks))
	for _, l := range d.RemovedLinks {
		removed[l] = true
	}
	if len(removed) != len(d.RemovedLinks) {
		return nil, fmt.Errorf("topogen: delta %d->%d lists a removed link twice", d.FromYear, d.ToYear)
	}
	prevLinks := prev.Graph.Links()
	links := make([]astopo.Link, 0, len(prevLinks)-len(d.RemovedLinks)+len(d.AddedLinks))
	have := make(map[[2]astopo.ASN]bool, len(prevLinks)+len(d.AddedLinks))
	dropped := 0
	for _, l := range prevLinks {
		if removed[l] {
			dropped++
			continue
		}
		links = append(links, l)
		have[pairKey(l.A, l.B)] = true
	}
	if dropped != len(d.RemovedLinks) {
		return nil, fmt.Errorf("topogen: delta %d->%d removes %d links but only %d matched the base world",
			d.FromYear, d.ToYear, len(d.RemovedLinks), dropped)
	}
	for _, l := range d.AddedLinks {
		k := pairKey(l.A, l.B)
		if have[k] {
			return nil, fmt.Errorf("topogen: delta %d->%d adds link %d-%d that already exists", d.FromYear, d.ToYear, l.A, l.B)
		}
		have[k] = true
		links = append(links, l)
	}
	g := astopo.FromLinks(links)
	g.Freeze()

	// Annotations: the base world's, extended with the new ASes.
	pm := prev.Meta
	class := make(map[astopo.ASN]topogen.ASClass, g.NumASes())
	name := make(map[astopo.ASN]string)
	home := make(map[astopo.ASN]geo.CityID, g.NumASes())
	pops := make(map[astopo.ASN][]geo.CityID)
	for i, a := range prev.Graph.ASes() {
		class[a] = pm.Class[i]
		home[a] = pm.Home[i]
		if pm.NameOff[i] != pm.NameOff[i+1] {
			name[a] = string(pm.NameBlob[pm.NameOff[i]:pm.NameOff[i+1]])
		}
		if ps := pm.PoPArena[pm.PoPOff[i]:pm.PoPOff[i+1]]; len(ps) > 0 {
			pops[a] = ps
		}
	}
	for _, na := range d.NewASes {
		class[na.ASN] = na.Class
		home[na.ASN] = na.Home
	}

	ixps := make([]topogen.IXP, len(prev.IXPs), len(prev.IXPs)+len(d.NewIXPs))
	for i, x := range prev.IXPs {
		ms := make([]astopo.ASN, len(x.Members))
		copy(ms, x.Members)
		ixps[i] = topogen.IXP{City: x.City, Members: ms}
	}
	for _, j := range d.IXPJoins {
		if j.IXP < 0 || int(j.IXP) >= len(prev.IXPs) {
			return nil, fmt.Errorf("topogen: delta %d->%d joins IXP %d of %d", d.FromYear, d.ToYear, j.IXP, len(prev.IXPs))
		}
		ixps[j.IXP].Members = append(ixps[j.IXP].Members, j.Member)
	}
	for _, nx := range d.NewIXPs {
		ixps = append(ixps, topogen.IXP{City: nx.City, Members: append([]astopo.ASN(nil), nx.Members...)})
	}

	in := &topogen.Internet{
		Spec:        spec,
		Graph:       g,
		Tier1:       make(astopo.ASSet, len(prev.Tier1)),
		Tier2:       make(astopo.ASSet, len(prev.Tier2)),
		Clouds:      make(map[string]astopo.ASN, len(prev.Clouds)),
		Hypergiants: make(map[string]astopo.ASN, len(prev.Hypergiants)),
		IXPs:        ixps,
	}
	for a := range prev.Tier1 {
		in.Tier1.Add(a)
	}
	for a := range prev.Tier2 {
		in.Tier2.Add(a)
	}
	for n, a := range prev.Clouds {
		in.Clouds[n] = a
	}
	for n, a := range prev.Hypergiants {
		in.Hypergiants[n] = a
	}
	in.Meta = topogen.NewASMeta(g, class, name, home, pops)
	return in, nil
}

func pairKey(a, b astopo.ASN) [2]astopo.ASN {
	if b < a {
		a, b = b, a
	}
	return [2]astopo.ASN{a, b}
}
