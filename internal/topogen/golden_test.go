package topogen_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"flatnet/internal/topogen"
)

// goldenTimelineChainSHA is the sha256 over every timeline year's world
// hash, annotation table and IXP list (2015..2025 at timelineTestScale).
// The yearly worlds are the input to every longitudinal number; a change
// to generation or delta application must leave them byte-identical.
const goldenTimelineChainSHA = "b68747109283f65969f76bc3e805075ad64a1828c73bbc6157d6480bafc95288"

func TestTimelineHashChainGolden(t *testing.T) {
	h := sha256.New()
	for y := topogen.TimelineFirstYear; y <= topogen.TimelineLastYear; y++ {
		in, err := topogen.GenerateYear(y, timelineTestScale)
		if err != nil {
			t.Fatalf("year %d: %v", y, err)
		}
		fmt.Fprintln(h, y, worldHash(in))
		fmt.Fprintf(h, "%v\n%v\n", *in.Meta, in.IXPs)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != goldenTimelineChainSHA {
		t.Fatalf("timeline chain digest %s, golden %s", got, goldenTimelineChainSHA)
	}
}
