package astopo

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"
)

// Splice returns the frozen graph that FromLinks(keep ++ added).Freeze()
// would build, where keep is g.Links() in order minus the exact (A, B, Rel)
// matches of removed — with identical Frozen() arrays — but builds it
// straight from g's frozen arrays, without re-sorting the endpoints or
// re-indexing the links. g is left untouched.
//
// The shortcut rests on Freeze filling every CSR row in link order: all
// kept links precede all added ones, so each node's new row is its old
// row (neighbours remapped to the new dense indexes, removed neighbours
// skipped) followed by its added neighbours in added order. Only the rows
// of nodes that lost a link need checking; a node whose last link is
// removed drops out of the node list exactly as Freeze would drop it.
//
// Splice fails closed: every removal must be unique and present, and
// every addition unique by pair, valid (no self link, P2P or P2C) and
// absent from the kept links. Re-adding a link removed in the same call
// is allowed; it moves to the end of the link order, possibly with a new
// relationship or direction.
func (g *Graph) Splice(removed, added []Link) (*Graph, error) {
	f := g.Frozen()
	n, m := len(f.Nodes), len(f.LinkA)
	drop, err := locateRemovals(f, removed)
	if err != nil {
		return nil, err
	}

	// Additions: valid and unique by pair. ends holds each endpoint's old
	// dense index, or -1 for an ASN new to the graph; those are collected
	// for the node merge.
	var fresh []ASN
	ends := make([]int32, 2*len(added))
	pairs := make([]uint64, len(added))
	for k, l := range added {
		if l.A == l.B {
			return nil, fmt.Errorf("astopo: splice adds a self link on AS%d", l.A)
		}
		if l.Rel != P2P && l.Rel != P2C {
			return nil, fmt.Errorf("astopo: splice adds AS%d-AS%d with invalid relationship %d", l.A, l.B, l.Rel)
		}
		for e, a := range [2]ASN{l.A, l.B} {
			i, ok := slices.BinarySearch(f.Nodes, a)
			if !ok {
				i = -1
				fresh = append(fresh, a)
			}
			ends[2*k+e] = int32(i)
		}
		p := canonPair(l.A, l.B)
		pairs[k] = pairKey(uint32(p[0]), uint32(p[1]))
	}
	slices.Sort(pairs)
	for k := 1; k < len(pairs); k++ {
		if pairs[k] == pairs[k-1] {
			return nil, fmt.Errorf("astopo: splice adds link AS%d-AS%d twice", pairs[k]>>32, uint32(pairs[k]))
		}
	}
	slices.Sort(fresh)
	fresh = slices.Compact(fresh)
	nf := len(fresh)

	// Degree deltas over the combined index space: old dense indexes
	// 0..n-1, then the fresh endpoints n..n+nf-1. lost holds every removed
	// link's (node, neighbour) key in both directions, sorted, so each
	// node's removed neighbours form one run.
	delta := make([]int32, 3*(n+nf))
	dProv, dCust, dPeer := delta[:n+nf], delta[n+nf:2*(n+nf)], delta[2*(n+nf):]
	lost := make([]uint64, 0, 2*len(drop))
	for _, k := range drop {
		ia, _ := slices.BinarySearch(f.Nodes, f.LinkA[k])
		ib, _ := slices.BinarySearch(f.Nodes, f.LinkB[k])
		a, b := int32(ia), int32(ib)
		lost = append(lost, pairKey(uint32(a), uint32(b)), pairKey(uint32(b), uint32(a)))
		if f.LinkRel[k] == P2P {
			dPeer[a]--
			dPeer[b]--
		} else {
			dCust[a]--
			dProv[b]--
		}
	}
	slices.Sort(lost)
	for k, l := range added {
		a, b := ends[2*k], ends[2*k+1]
		if a >= 0 && b >= 0 {
			// Both endpoints exist: the pair must be unlinked, or linked
			// only by a link this splice removes.
			if _, linked := g.relBetween(int(a), int(b)); linked {
				if _, gone := slices.BinarySearch(lost, pairKey(uint32(a), uint32(b))); !gone {
					return nil, fmt.Errorf("astopo: splice adds link AS%d-AS%d that already exists", l.A, l.B)
				}
			}
		}
		if a < 0 {
			j, _ := slices.BinarySearch(fresh, l.A)
			a = int32(n + j)
		}
		if b < 0 {
			j, _ := slices.BinarySearch(fresh, l.B)
			b = int32(n + j)
		}
		ends[2*k], ends[2*k+1] = a, b
		if l.Rel == P2P {
			dPeer[a]++
			dPeer[b]++
		} else {
			dCust[a]++
			dProv[b]++
		}
	}

	// Node list: the surviving old nodes merged with the fresh endpoints
	// (disjoint, both sorted); remap takes the combined space to new dense
	// indexes, -1 for a node that lost its last link.
	rowLen := func(off []int32, i int) int32 { return off[i+1] - off[i] }
	remap := make([]int32, n+nf)
	nodes := make([]ASN, 0, n+nf)
	for i, j := 0, 0; i < n || j < nf; {
		if j == nf || (i < n && f.Nodes[i] < fresh[j]) {
			deg := rowLen(f.ProvOff, i) + rowLen(f.CustOff, i) + rowLen(f.PeerOff, i) + dProv[i] + dCust[i] + dPeer[i]
			remap[i] = -1
			if deg > 0 {
				remap[i] = int32(len(nodes))
				nodes = append(nodes, f.Nodes[i])
			}
			i++
		} else {
			remap[n+j] = int32(len(nodes))
			nodes = append(nodes, fresh[j])
			j++
		}
	}

	// Offsets: Freeze's block layout (every provider row, then every
	// customer row, then every peer row), from old row lengths plus the
	// deltas.
	nn := len(nodes)
	offs := make([]int32, 3*(nn+1))
	provOff, custOff, peerOff := offs[:nn+1], offs[nn+1:2*(nn+1)], offs[2*(nn+1):]
	type block struct{ off, oldOff, delta []int32 }
	blocks := [3]block{{provOff, f.ProvOff, dProv}, {custOff, f.CustOff, dCust}, {peerOff, f.PeerOff, dPeer}}
	var off int32
	for _, bl := range blocks {
		for x, ni := range remap {
			if ni < 0 {
				continue
			}
			bl.off[ni] = bl.delta[x]
			if x < n {
				bl.off[ni] += rowLen(bl.oldOff, x)
			}
		}
		for ni := 0; ni < nn; ni++ {
			deg := bl.off[ni]
			bl.off[ni] = off
			off += deg
		}
		bl.off[nn] = off
	}

	// Arena: old rows copied remapped — skipping removed neighbours, which
	// only rows of nodes that lost a link can hold — then the additions
	// appended in order through per-row cursors, a P2P link filling both
	// rows at the same step: Freeze's fill order exactly.
	m2 := m - len(drop) + len(added)
	arena := make([]int32, 2*m2)
	cur := make([]int32, 3*nn)
	provCur, custCur, peerCur := cur[:nn], cur[nn:2*nn], cur[2*nn:]
	copy(provCur, provOff[:nn])
	copy(custCur, custOff[:nn])
	copy(peerCur, peerOff[:nn])
	rowCur := [3][]int32{provCur, custCur, peerCur}
	// gone[x] == i+1 marks x as a removed neighbour of the node i being
	// copied: stamped from i's run of lost, so no reset is needed.
	gone := make([]int32, n)
	lp := 0
	for i := 0; i < n; i++ {
		stamp := int32(i + 1)
		lossy := false
		for ; lp < len(lost) && lost[lp]>>32 == uint64(i); lp++ {
			gone[int32(lost[lp])] = stamp
			lossy = true
		}
		ni := remap[i]
		if ni < 0 {
			continue
		}
		for b, bl := range blocks {
			c := rowCur[b][ni]
			row := f.Arena[bl.oldOff[i]:bl.oldOff[i+1]]
			if lossy {
				for _, x := range row {
					if gone[x] != stamp {
						arena[c] = remap[x]
						c++
					}
				}
			} else {
				for _, x := range row {
					arena[c] = remap[x]
					c++
				}
			}
			rowCur[b][ni] = c
		}
	}
	for k, l := range added {
		a, b := remap[ends[2*k]], remap[ends[2*k+1]]
		if l.Rel == P2P {
			arena[peerCur[a]] = b
			peerCur[a]++
			arena[peerCur[b]] = a
			peerCur[b]++
		} else {
			arena[custCur[a]] = b
			custCur[a]++
			arena[provCur[b]] = a
			provCur[b]++
		}
	}

	// Link columns: the old columns minus the dropped indexes (ascending),
	// then the additions.
	cols := make([]ASN, 2*m2)
	linkA, linkB := cols[:m2], cols[m2:]
	linkRel := make([]Rel, m2)
	w, from := 0, 0
	for _, k := range append(drop, int32(m)) {
		copy(linkA[w:], f.LinkA[from:k])
		copy(linkB[w:], f.LinkB[from:k])
		copy(linkRel[w:], f.LinkRel[from:k])
		w += int(k) - from
		from = int(k) + 1
	}
	for _, l := range added {
		linkA[w], linkB[w], linkRel[w] = l.A, l.B, l.Rel
		w++
	}
	return &Graph{
		rawA: linkA, rawB: linkB, rawRel: linkRel,
		frozen:  true,
		nodes:   nodes,
		provOff: provOff, custOff: custOff, peerOff: peerOff,
		arena: arena,
	}, nil
}

// locateRemovals returns the ascending link indexes of removed, failing
// unless every removal is unique and matches a link exactly. One pass over
// the link columns finds them: a one-bit-per-slot filter over the removed
// (A, B) pairs costs a multiply and a bit test per link, and only the rare
// filter hits are confirmed by binary search.
func locateRemovals(f Frozen, removed []Link) ([]int32, error) {
	if len(removed) == 0 {
		return nil, nil
	}
	rm := slices.Clone(removed)
	slices.SortFunc(rm, func(x, y Link) int {
		return cmp.Or(cmp.Compare(x.A, y.A), cmp.Compare(x.B, y.B), cmp.Compare(x.Rel, y.Rel))
	})
	// A graph holds at most one link per (A, B), so two removals sharing
	// it cannot both match: reject them as duplicates up front, leaving
	// keys unique.
	keys := make([]uint64, len(rm))
	for k, l := range rm {
		keys[k] = pairKey(uint32(l.A), uint32(l.B))
		if k > 0 && keys[k] == keys[k-1] {
			return nil, fmt.Errorf("astopo: splice removes link AS%d-AS%d twice", l.A, l.B)
		}
	}
	size := uint(64)
	for size < 32*uint(len(rm)) {
		size <<= 1
	}
	shift := 64 - bits.TrailingZeros(size)
	slot := func(key uint64) uint64 { return key * 0x9E3779B97F4A7C15 >> shift }
	filter := make([]uint64, size/64)
	for _, key := range keys {
		s := slot(key)
		filter[s>>6] |= 1 << (s & 63)
	}
	drop := make([]int32, 0, len(rm))
	for k, a := range f.LinkA {
		key := pairKey(uint32(a), uint32(f.LinkB[k]))
		if s := slot(key); filter[s>>6]&(1<<(s&63)) == 0 {
			continue
		}
		if j, ok := slices.BinarySearch(keys, key); ok && rm[j].Rel == f.LinkRel[k] {
			drop = append(drop, int32(k))
		}
	}
	if len(drop) != len(rm) {
		return nil, fmt.Errorf("astopo: splice removes %d links but only %d match the graph", len(rm), len(drop))
	}
	return drop, nil
}

// pairKey packs two 32-bit values (ASNs or dense indexes) into one
// ordered key.
func pairKey(a, b uint32) uint64 { return uint64(a)<<32 | uint64(b) }
