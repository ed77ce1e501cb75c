package tracesim

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"
)

// goldenTraceSHA is the sha256 of tracesDigest over TraceAllMulti's output
// for all four clouds' default VM sets on the 2020 preset at scale 0.01425.
// The traces drive §4.1's neighbor inference and §5/App. A; an engine
// change must leave them byte-identical.
const goldenTraceSHA = "d246c925d647e818d7c2b9dfc67570e4192e53a3c54ad3775dfd610b56f2c110"

// tracesDigest hashes every field of every traceroute, ground truth
// included, in [set][vm][destination] order.
func tracesDigest(all [][][]Traceroute) string {
	h := sha256.New()
	for _, set := range all {
		for _, perVM := range set {
			for i := range perVM {
				tr := &perVM[i]
				fmt.Fprintln(h, tr.VM.Cloud, tr.VM.CloudASN, tr.VM.City, tr.VM.Index,
					tr.Dst, tr.DstASN, tr.Reached, tr.OnBestPath, tr.TruePath)
				for _, hop := range tr.Hops {
					fmt.Fprintln(h, " ", hop.TTL, hop.Addr, hop.TrueAS)
				}
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

func TestTraceAllMultiGolden(t *testing.T) {
	e := newEngine(t, 0.01425)
	var sets [][]VM
	for _, c := range []string{"Google", "Amazon", "Microsoft", "IBM"} {
		vms, err := e.VMs(c, 0)
		if err != nil {
			t.Fatal(err)
		}
		sets = append(sets, vms)
	}
	all, err := e.TraceAllMulti(sets)
	if err != nil {
		t.Fatal(err)
	}
	if got := tracesDigest(all); got != goldenTraceSHA {
		t.Fatalf("trace digest %s, golden %s", got, goldenTraceSHA)
	}
}
