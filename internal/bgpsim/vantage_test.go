package bgpsim

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"flatnet/internal/astopo"
)

// upClosure returns the membership mask of the seeds plus every AS reachable
// from them over customer→provider edges.
func upClosure(g *astopo.Graph, seeds []int32) []bool {
	in := make([]bool, g.NumASes())
	stack := append([]int32(nil), seeds...)
	for _, s := range seeds {
		in[s] = true
	}
	for len(stack) > 0 {
		x := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, p := range g.ProvidersOf(int(x)) {
			if !in[p] {
				in[p] = true
				stack = append(stack, p)
			}
		}
	}
	return in
}

// checkVantage runs every origin in origins through one Vantage (so runs
// also exercise its touched-node reset) and through the Simulator oracle.
// On up-cone(origin) ∪ U the two must agree on Class, Dist and the ordered
// NextHops; everywhere else the Vantage must report no route.
func checkVantage(t *testing.T, g *astopo.Graph, roots []int32, origins []int32) bool {
	t.Helper()
	v := NewVantage(g, roots)
	sim := New(g)
	inU := upClosure(g, roots)
	if n := countTrue(inU); v.Size() != n {
		t.Logf("roots %v: |U| = %d, closure has %d", roots, v.Size(), n)
		return false
	}
	for _, o := range origins {
		want, err := sim.Run(Config{Origin: g.ASNAt(int(o)), TrackNextHops: true})
		if err != nil {
			t.Log(err)
			return false
		}
		got, err := v.Run(g.ASNAt(int(o)))
		if err != nil {
			t.Log(err)
			return false
		}
		if got.Origin != o {
			t.Logf("origin %d: Result.Origin %d", o, got.Origin)
			return false
		}
		cone := upClosure(g, []int32{o})
		for i := range want.Class {
			if cone[i] || inU[i] {
				if got.Class[i] != want.Class[i] || got.Dist[i] != want.Dist[i] ||
					!slices.Equal(got.NextHops[i], want.NextHops[i]) {
					t.Logf("roots %v origin %d node %d: vantage %v/%d %v, simulator %v/%d %v",
						roots, o, i, got.Class[i], got.Dist[i], got.NextHops[i],
						want.Class[i], want.Dist[i], want.NextHops[i])
					return false
				}
				continue
			}
			if got.Class[i] != ClassNone || got.Dist[i] != -1 || len(got.NextHops[i]) != 0 {
				t.Logf("roots %v origin %d node %d outside the cone and U: %v/%d %v",
					roots, o, i, got.Class[i], got.Dist[i], got.NextHops[i])
				return false
			}
		}
	}
	return true
}

func countTrue(m []bool) int {
	n := 0
	for _, b := range m {
		if b {
			n++
		}
	}
	return n
}

func randomRoots(rng *rand.Rand, n, k int) []int32 {
	roots := make([]int32, k)
	for i := range roots {
		roots[i] = int32(rng.Intn(n))
	}
	return roots
}

func TestVantageMatchesSimulatorRandom(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomTopology(rng)
		g.Freeze()
		n := g.NumASes()
		origins := make([]int32, n)
		for i := range origins {
			origins[i] = int32(i)
		}
		rng.Shuffle(n, func(i, j int) { origins[i], origins[j] = origins[j], origins[i] })
		return checkVantage(t, g, randomRoots(rng, n, 1+rng.Intn(4)), origins)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestVantageMatchesSimulatorPreset(t *testing.T) {
	in := genInternet(t, 0.01425)
	g := in.Graph
	n := g.NumASes()
	rng := rand.New(rand.NewSource(7))
	var clouds []int32
	for _, asn := range in.Clouds {
		i, _ := g.Index(asn)
		clouds = append(clouds, int32(i))
	}
	slices.Sort(clouds)
	origins := make([]int32, 400)
	for i := range origins {
		origins[i] = int32(rng.Intn(n))
	}
	for _, roots := range [][]int32{
		clouds,
		randomRoots(rng, n, 40),
		randomRoots(rng, n, 3),
	} {
		if !checkVantage(t, g, roots, origins) {
			t.Fatalf("vantage differs from the simulator for roots %v", roots)
		}
	}
}

func TestVantageUnknownOrigin(t *testing.T) {
	g := astopo.NewGraph(2, 1)
	g.MustAddLink(1, 2, astopo.P2C)
	if _, err := NewVantage(g, []int32{0}).Run(99); err == nil {
		t.Fatal("unknown origin accepted")
	}
}

// Runs reuse the Vantage's buffers and reset only touched nodes: after
// warm-up, a sweep over every origin must not allocate.
func TestVantageAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector's shadow allocations break AllocsPerRun")
	}
	rng := rand.New(rand.NewSource(9))
	g := randomTopology(rng)
	g.Freeze()
	n := g.NumASes()
	v := NewVantage(g, randomRoots(rng, n, 3))
	run := func() {
		for i := 0; i < n; i++ {
			if _, err := v.Run(g.ASNAt(i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	run() // warm the next-hop lists and the dial queue to high water
	if allocs := testing.AllocsPerRun(3, run); allocs != 0 {
		t.Fatalf("steady-state Vantage.Run allocated %.1f times per sweep, want 0", allocs)
	}
}
