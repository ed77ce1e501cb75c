package cluster

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"slices"

	"flatnet/internal/astopo"
)

// DatasetHash computes the content address of a served world: a sha256
// over the frozen topology arrays (sorted node list, CSR offsets and
// arena, link columns) and the sorted Tier-1/Tier-2 exclusion sets.
//
// Two nodes with equal hashes index the same AS at the same dense position
// and exclude the same tiers, so shard results keyed by dense index ranges
// can be merged without translation. Worlds loaded from the same snapshot
// hash equal by construction; independently generated worlds hash equal
// because generation is deterministic (the netdb map-iteration fix in
// PR 5 is what makes that guarantee hold).
//
// The hash is defined over explicit little-endian bytes, not in-memory
// representation, so it is stable across architectures.
func DatasetHash(g *astopo.Graph, tier1, tier2 astopo.ASSet) string {
	f := g.Frozen()
	h := sha256.New()
	// Words are appended to one 64 KiB buffer that is written whenever it
	// fills: the digest is that of the same byte stream, without a Write
	// call per 4-byte word.
	buf := make([]byte, 0, 64<<10)
	flush := func() {
		h.Write(buf)
		buf = buf[:0]
	}
	u32 := func(v uint32) {
		if len(buf)+4 > cap(buf) {
			flush()
		}
		buf = binary.LittleEndian.AppendUint32(buf, v)
	}
	u64 := func(v uint64) {
		if len(buf)+8 > cap(buf) {
			flush()
		}
		buf = binary.LittleEndian.AppendUint64(buf, v)
	}
	buf = append(buf, "flatnet-world-v1"...)
	u64(uint64(len(f.Nodes)))
	u64(uint64(len(f.LinkA)))
	for _, a := range f.Nodes {
		u32(uint32(a))
	}
	for _, off := range [][]int32{f.ProvOff, f.CustOff, f.PeerOff} {
		for _, v := range off {
			u32(uint32(v))
		}
	}
	for _, v := range f.Arena {
		u32(uint32(v))
	}
	for i := range f.LinkA {
		u32(uint32(f.LinkA[i]))
		u32(uint32(f.LinkB[i]))
		u32(uint32(int32(f.LinkRel[i])))
	}
	for _, set := range []astopo.ASSet{tier1, tier2} {
		asns := set.Slice()
		slices.Sort(asns)
		u64(uint64(len(asns)))
		for _, a := range asns {
			u32(uint32(a))
		}
	}
	flush()
	return fmt.Sprintf("%x", h.Sum(nil))
}
