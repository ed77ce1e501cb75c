package bgpsim

import (
	"fmt"
	"slices"

	"flatnet/internal/astopo"
)

// Vantage is a propagation engine for callers that read routes only at a
// fixed set of root ASes — route-collector vantage points walking their
// exported paths, or cloud ASes walking traceroute paths. For each origin
// it computes Class, Dist and the ordered tied-best NextHops only on
// up-cone(origin) ∪ U, where the up-cone is every AS reachable from the
// origin over customer→provider edges and U is the provider closure of the
// roots (the roots, their providers, their providers' providers, ...). On
// those nodes the values equal what Simulator.Run produces for a plain
// tracked propagation (no policy, mask, leak or tie-breaking); every other
// node reads ClassNone, Dist -1 and no next hops.
//
// Why restricting the work is exact:
//
//   - A route a root can use runs only through customer-class nodes, which
//     are the up-cone and are filled completely by stage A, and through U:
//     a peer- or provider-class node's next hops are its customers or its
//     providers, and a provider of a U node is itself in U.
//   - Hence every stage-B push into U comes from the origin or a
//     customer-class node, and every stage-C push into U comes from a U
//     node (a provider of the receiver) or from the stage-C seed scan.
//   - Dropping the pushes to nodes outside U keeps the relative order of
//     the remaining pushes, and with it the order of each U node's next
//     hops. Order matters: path walkers pick hops[(x>>33)%len(hops)].
//
// The push orders replicated from propagate are: stage B contributes the
// origin first, then customer-class nodes in ascending index; stage C
// seeds the origin's customers first, then the customer- and peer-class
// nodes of U in ascending index (each in CustomersOf order), then drains
// the distance buckets.
//
// A Vantage reuses its buffers across runs and resets only the nodes a run
// touched. It is not safe for concurrent use; build one per goroutine.
type Vantage struct {
	g *astopo.Graph
	n int

	inU []bool
	u   []int32 // U in ascending index order

	// U-restricted adjacency in CSR form, in the graph's adjacency order:
	// peerU[peerOff[v]:peerOff[v+1]] are v's peers inside U (for every v),
	// custU[custOff[v]:custOff[v+1]] are v's customers inside U (filled
	// for v in U only; nothing outside U pushes into U in stage C).
	peerOff, peerU []int32
	custOff, custU []int32

	class []Class
	dist  []int32
	tent  []int32
	vias  [][]int32

	buckets [][]int32
	touched []int32 // nodes given a route this run, in settle order
	cone    []int32 // scratch: customer-class nodes sorted by index
	res     Result
}

// NewVantage builds a Vantage for g and the roots (dense indexes; repeats
// are ignored). The graph is frozen by the call and must not be mutated
// afterwards.
func NewVantage(g *astopo.Graph, roots []int32) *Vantage {
	g.Freeze()
	n := g.NumASes()
	v := &Vantage{
		g:     g,
		n:     n,
		inU:   make([]bool, n),
		class: make([]Class, n),
		dist:  make([]int32, n),
		tent:  make([]int32, n),
		vias:  make([][]int32, n),
	}
	for _, r := range roots {
		if !v.inU[r] {
			v.inU[r] = true
			v.u = append(v.u, r)
		}
	}
	for i := 0; i < len(v.u); i++ {
		for _, p := range g.ProvidersOf(int(v.u[i])) {
			if !v.inU[p] {
				v.inU[p] = true
				v.u = append(v.u, p)
			}
		}
	}
	slices.Sort(v.u)

	v.peerOff = make([]int32, n+1)
	v.custOff = make([]int32, n+1)
	for i := 0; i < n; i++ {
		for _, pe := range g.PeersOf(i) {
			if v.inU[pe] {
				v.peerU = append(v.peerU, pe)
			}
		}
		v.peerOff[i+1] = int32(len(v.peerU))
		if v.inU[i] {
			for _, c := range g.CustomersOf(i) {
				if v.inU[c] {
					v.custU = append(v.custU, c)
				}
			}
		}
		v.custOff[i+1] = int32(len(v.custU))
	}
	for i := range v.dist {
		v.dist[i] = -1
		v.tent[i] = -1
	}
	v.res = Result{Graph: g, Origin: -1, LeakerIdx: -1, Class: v.class, Dist: v.dist, NextHops: v.vias}
	return v
}

// Size returns |U|, the number of ASes in the roots' provider closure.
func (v *Vantage) Size() int { return len(v.u) }

// Run propagates a prefix originated by origin and returns a Result that
// aliases the Vantage's buffers: it is valid only until the next Run, and
// callers must not modify it. Only Class, Dist and NextHops are filled,
// and only on up-cone(origin) ∪ U (see Vantage).
func (v *Vantage) Run(origin astopo.ASN) (*Result, error) {
	oi, ok := v.g.Index(origin)
	if !ok {
		return nil, fmt.Errorf("bgpsim: origin AS%d not in graph", origin)
	}
	v.reset()
	v.propagate(int32(oi))
	v.res.Origin = int32(oi)
	return &v.res, nil
}

// reset restores every node the previous run touched to the no-route
// state.
func (v *Vantage) reset() {
	for _, x := range v.touched {
		v.class[x] = ClassNone
		v.dist[x] = -1
		v.tent[x] = -1
		v.vias[x] = v.vias[x][:0]
	}
	v.touched = v.touched[:0]
	for i := range v.buckets {
		v.buckets[i] = v.buckets[i][:0]
	}
}

// push offers node a route of length d via `via` (propagate's push without
// leak flags): a shorter route replaces the tentative one and queues the
// node, an equally short one adds a tied next hop.
func (v *Vantage) push(node, d, via int32) {
	switch t := v.tent[node]; {
	case t == -1 || d < t:
		v.tent[node] = d
		v.vias[node] = append(v.vias[node][:0], via)
		for int(d) >= len(v.buckets) {
			v.buckets = append(v.buckets, nil)
		}
		v.buckets[d] = append(v.buckets[d], node)
	case d == t:
		v.vias[node] = append(v.vias[node], via)
	}
}

func (v *Vantage) settle(node int32, c Class) {
	v.class[node] = c
	v.dist[node] = v.tent[node]
	v.touched = append(v.touched, node)
}

// propagate runs the three Gao–Rexford stages of Simulator.propagate,
// restricted as the Vantage doc describes. Every node given a tentative
// route is settled within the same stage, so no reset is needed between
// stages.
func (v *Vantage) propagate(origin int32) {
	g := v.g
	class, dist, tent := v.class, v.dist, v.tent
	class[origin] = ClassOrigin
	dist[origin] = 0
	v.touched = append(v.touched, origin)

	// Stage A: customer routes over the whole up-cone. A settled node
	// never takes a push (it is settled at a length no longer than any
	// later offer), so skipping classed receivers changes nothing.
	for _, p := range g.ProvidersOf(int(origin)) {
		v.push(p, 1, origin)
	}
	v.drain(func(u int32, d int32) {
		v.settle(u, ClassCustomer)
		for _, p := range g.ProvidersOf(int(u)) {
			if class[p] == ClassNone {
				v.push(p, d+1, u)
			}
		}
	})

	// Stage B: peer routes, into U only. The origin contributes first,
	// then the customer-class nodes in ascending index.
	cone := append(v.cone[:0], v.touched[1:]...)
	slices.Sort(cone)
	v.cone = cone
	peer := func(u, d int32) {
		for _, pe := range v.peerU[v.peerOff[u]:v.peerOff[u+1]] {
			if class[pe] == ClassNone {
				v.push(pe, d, u)
			}
		}
	}
	peer(origin, 1)
	for _, u := range cone {
		peer(u, dist[u]+1)
	}
	for _, x := range v.u {
		if class[x] == ClassNone && tent[x] >= 0 {
			v.settle(x, ClassPeer)
		}
	}

	// Stage C: provider routes, into U only. Seeds: the origin's
	// customers, then U's customer- and peer-class nodes in ascending
	// index; then the buckets in length order. Stage B's queue entries
	// are all settled; drop them.
	for i := range v.buckets {
		v.buckets[i] = v.buckets[i][:0]
	}
	down := func(u, d int32) {
		for _, c := range v.custU[v.custOff[u]:v.custOff[u+1]] {
			if class[c] == ClassNone {
				v.push(c, d, u)
			}
		}
	}
	for _, c := range g.CustomersOf(int(origin)) {
		if v.inU[c] && class[c] == ClassNone {
			v.push(c, 1, origin)
		}
	}
	for _, u := range v.u {
		if c := class[u]; c == ClassCustomer || c == ClassPeer {
			down(u, dist[u]+1)
		}
	}
	v.drain(func(u int32, d int32) {
		v.settle(u, ClassProvider)
		down(u, d+1)
	})
}

// drain processes the distance buckets in increasing length, calling
// visit for each node whose tentative length is final (stale entries and
// settled nodes are skipped).
func (v *Vantage) drain(visit func(u, d int32)) {
	for d := 0; d < len(v.buckets); d++ {
		for _, u := range v.buckets[d] {
			if v.class[u] != ClassNone || v.tent[u] != int32(d) {
				continue
			}
			visit(u, int32(d))
		}
	}
}
