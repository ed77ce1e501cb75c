package bgpfeed

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"flatnet/internal/astopo"
	"flatnet/internal/topogen"
)

// goldenFeedScale is the 2020 preset scale the feed digest is pinned at.
const goldenFeedScale = 0.05

// goldenFeedSHA is the sha256 of viewDigest over the feed the experiments
// collect (40 VPs from the transit, Tier-2 and Tier-1 classes, seed 11) at
// goldenFeedScale. The paths feed relationship inference and §4.1's
// visibility numbers; an engine change must leave them byte-identical.
const goldenFeedSHA = "0af5902c7bc818bbead30c7036044e51153ad76147bd9edc8bec48192618ad5b"

// viewDigest hashes a view's paths (in order) and its link set.
func viewDigest(v *View) string {
	h := sha256.New()
	for _, p := range v.Paths {
		fmt.Fprintln(h, p)
	}
	fmt.Fprintln(h, "--")
	for _, l := range v.Links {
		fmt.Fprintln(h, l.A, l.B, l.Rel)
	}
	return hex.EncodeToString(h.Sum(nil))
}

func TestCollectGolden(t *testing.T) {
	in, err := topogen.Generate(topogen.Internet2020(goldenFeedScale))
	if err != nil {
		t.Fatal(err)
	}
	var cands []astopo.ASN
	for i, a := range in.Graph.ASes() {
		switch in.ClassAt(i) {
		case topogen.ClassTransit, topogen.ClassTier2, topogen.ClassTier1:
			cands = append(cands, a)
		}
	}
	view, err := Collect(in.Graph, SampleVPs(cands, 40, 11))
	if err != nil {
		t.Fatal(err)
	}
	if got := viewDigest(view); got != goldenFeedSHA {
		t.Fatalf("feed digest %s, golden %s (%d paths, %d links)", got, goldenFeedSHA, len(view.Paths), len(view.Links))
	}
}
