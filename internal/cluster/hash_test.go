package cluster

import (
	"math/rand"
	"testing"

	"flatnet/internal/astopo"
)

// TestDatasetHashKnownDigest pins the world hash's byte definition: a
// small hand-built world and a random one large enough to span many
// internal write buffers must keep these exact digests, so worlds hashed
// by older and newer builds keep matching.
func TestDatasetHashKnownDigest(t *testing.T) {
	small := astopo.NewGraph(0, 0)
	small.MustAddLink(1, 100, astopo.P2C)
	small.MustAddLink(100, 2, astopo.P2P)
	small.MustAddLink(2, 6, astopo.P2C)

	rng := rand.New(rand.NewSource(7))
	big := astopo.NewGraph(0, 0)
	for big.NumLinks() < 40000 {
		a, b := astopo.ASN(1+rng.Intn(6000)), astopo.ASN(1+rng.Intn(6000))
		rel := astopo.P2P
		if rng.Intn(3) == 0 {
			rel = astopo.P2C
		}
		if _, dup := big.HasLink(a, b); a != b && !dup {
			big.MustAddLink(a, b, rel)
		}
	}
	for _, c := range []struct {
		name string
		g    *astopo.Graph
		want string
	}{
		{"small", small, "b35b4f90eac26bb731f30368a5fb4fe5dde5e006b3c1c6e4ac71d69d7e39f541"},
		{"random", big, "5b31472a31007a6af18f170e0e1aedb9967c9e380e34216fcac2dc21e120baea"},
	} {
		if got := DatasetHash(c.g, astopo.NewASSet(1, 2), astopo.NewASSet(100)); got != c.want {
			t.Errorf("%s world: hash %s, want %s", c.name, got, c.want)
		}
	}
}
