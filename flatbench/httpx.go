package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"flatnet/internal/astopo"
	"flatnet/internal/cluster"
	"flatnet/internal/core"
	"flatnet/internal/serve"
	"flatnet/internal/snapshot"
)

// clientConns is the client connection budget of every workload: load
// comes from one process over at most two connections (nproc of the 2-CPU
// box the benchmark was sized on), fixed so the offered load is the same on
// any machine.
const clientConns = 2

func newClient(conns int) *http.Client {
	return &http.Client{
		Timeout: 2 * time.Minute,
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			IdleConnTimeout:     time.Minute,
			DisableCompression:  true,
		},
	}
}

// do sends one request and returns the status and body.
func do(ctx context.Context, c *http.Client, method, url, accept, ctype string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return 0, nil, err
	}
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	if ctype != "" {
		req.Header.Set("Content-Type", ctype)
	}
	resp, err := c.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

func get(ctx context.Context, c *http.Client, url string) (int, []byte, error) {
	return do(ctx, c, http.MethodGet, url, "", "", nil)
}

// getWireCounts fetches a full per-AS counts vector (the binary wire
// opt-in of /v1/sweep) and decodes it with the program's own codec.
func getWireCounts(ctx context.Context, c *http.Client, url string, n int) ([]int, int, error) {
	status, body, err := do(ctx, c, http.MethodGet, url, cluster.WireContentType, "", nil)
	if err != nil || status != http.StatusOK {
		return nil, status, err
	}
	out := make([]int, n)
	if err := cluster.CheckCounts(body, n); err != nil {
		return nil, status, err
	}
	return out, status, cluster.DecodeCountsInto(out, body)
}

// serverStats mirrors the /v1/stats fields the benchmark reads.
type serverStats struct {
	CacheHits    int64          `json:"cache_hits"`
	CacheMisses  int64          `json:"cache_misses"`
	Coalesced    int64          `json:"coalesced"`
	Computations int64          `json:"computations"`
	Shed         int64          `json:"shed"`
	Cluster      *cluster.Stats `json:"cluster"`
}

func fetchStats(ctx context.Context, c *http.Client, base string) (serverStats, error) {
	var st serverStats
	status, body, err := get(ctx, c, base+"/v1/stats")
	if err != nil {
		return st, err
	}
	if status != http.StatusOK {
		return st, fmt.Errorf("/v1/stats: status %d", status)
	}
	return st, json.Unmarshal(body, &st)
}

// statsLayers turns a /v1/stats delta into the serve and cluster counters.
func statsLayers(rep *Report, before, after serverStats) {
	hits := after.CacheHits - before.CacheHits
	misses := after.CacheMisses - before.CacheMisses
	if hits+misses > 0 {
		rep.Layer["serve.cache_hit_ratio"] = float64(hits) / float64(hits+misses)
	}
	rep.Layer["serve.computations"] = float64(after.Computations - before.Computations)
	rep.Layer["serve.coalesced"] = float64(after.Coalesced - before.Coalesced)
	rep.Layer["serve.shed"] = float64(after.Shed - before.Shed)
	if after.Cluster != nil {
		b := before.Cluster
		if b == nil {
			b = &cluster.Stats{}
		}
		a := after.Cluster
		remote := a.RemoteShards - b.RemoteShards
		local := a.LocalShards - b.LocalShards
		hedges := a.Hedges - b.Hedges
		retries := a.Retries - b.Retries
		rep.Layer["cluster.remote_shards"] = float64(remote)
		rep.Layer["cluster.hedges"] = float64(hedges)
		rep.Layer["cluster.retries"] = float64(retries)
		rep.Layer["cluster.multi_batches"] = float64(a.MultiBatches - b.MultiBatches)
		rep.Layer["cluster.wire_bytes"] = float64(a.WireBytes - b.WireBytes)
		// Needed shards are the ones merged; every hedge and retry
		// dispatched one more that was not.
		if d := remote + local + hedges + retries; d > 0 {
			rep.Layer["cluster.useful_shard_ratio"] = float64(remote+local) / float64(d)
		}
	}
}

// node is one in-process flatnetd: a snapshot opened on the mmap path and
// served over loopback, configured as the daemon configures itself.
type node struct {
	rd   *snapshot.Reader
	srv  *serve.Server
	base string
}

func startNode(path string, year int) (*node, error) {
	rd, err := snapshot.Open(path)
	if err != nil {
		return nil, err
	}
	in := rd.Internet(year)
	if in == nil {
		rd.Close()
		return nil, fmt.Errorf("snapshot %s has no %d section", path, year)
	}
	srv, err := serve.New(serve.Config{
		Dataset:      core.Dataset{Graph: in.Graph, Tier1: in.Tier1, Tier2: in.Tier2},
		Names:        in.NameOf,
		World:        in,
		SnapshotPath: path,
		Year:         year,
	})
	if err != nil {
		rd.Close()
		return nil, err
	}
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		rd.Close()
		return nil, err
	}
	return &node{rd: rd, srv: srv, base: "http://" + addr.String()}, nil
}

// stop drains the server, then unmaps its snapshot.
func (n *node) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = n.srv.Shutdown(ctx) // a drain timeout only delays the unmap below
	n.rd.Close()
}

// zipf draws ASNs with Zipf-skewed popularity over a seeded permutation,
// so a few origins are hot and most are cold.
type zipf struct {
	perm []astopo.ASN
	z    *rand.Zipf
}

func newZipf(rng *rand.Rand, asns []astopo.ASN) *zipf {
	perm := append([]astopo.ASN(nil), asns...)
	rng.Shuffle(len(perm), func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
	return &zipf{perm: perm, z: rand.NewZipf(rng, 1.1, 1, uint64(len(perm)-1))}
}

func (z *zipf) next() astopo.ASN { return z.perm[z.z.Uint64()] }

// op is one generated request. Key identifies the query (equal keys must
// get equal answers); ClassKey identifies it up to origin equivalence
// class, the granularity the serve layer's class cache reuses.
type op struct {
	Kind     string
	Method   string
	Path     string
	Body     []byte
	Key      string
	ClassKey string
	Origin   astopo.ASN
	RKind    core.Kind
	Scenario string
	Seed     int64 // leak sample seed
}

// outcome is one sent request. Latency is measured from when the request
// was due, so a stall also charges the requests queued behind it.
type outcome struct {
	Op      int
	Latency time.Duration
	Lag     time.Duration // how late the generator itself woke up
	Status  int
	Body    []byte
	Err     error
	Span    int64
}

func (o *outcome) ok() bool { return o.Err == nil && o.Status == http.StatusOK }

func (o *outcome) ms() float64 { return float64(o.Latency) / 1e6 }

// openLoop sends ops[i] at start + i/rate over conns connections,
// regardless of how earlier requests fare: the arrival schedule is fixed,
// and a request waiting for a free connection is already late.
func openLoop(ctx context.Context, c *http.Client, base string, ops []op, rate float64, conns int, tr *Tracer) []outcome {
	out := make([]outcome, len(ops))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(ops) {
					return
				}
				due := start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
				var lag time.Duration
				if wait := time.Until(due); wait > 0 {
					time.Sleep(wait)
					lag = time.Since(due)
				}
				o := &ops[i]
				end := tr.Start("http."+o.Kind, int64(i+1), 0)
				status, body, err := do(ctx, c, o.Method, base+o.Path, "", ctypeFor(o.Body), o.Body)
				span := end()
				out[i] = outcome{Op: i, Latency: time.Since(due), Lag: lag, Status: status, Body: body, Err: err, Span: span}
			}
		}()
	}
	wg.Wait()
	return out
}

// ctypeFor is the Content-Type of a request body (none without one).
func ctypeFor(body []byte) string {
	if body != nil {
		return "application/json"
	}
	return ""
}

// latencies returns the latency (ms) of every successful outcome whose op
// passes keep. Failed requests count in the run's failures, not its
// latencies: a fast error must not read as a fast answer.
func latencies(ops []op, outs []outcome, keep func(*op) bool) []float64 {
	var xs []float64
	for i := range outs {
		if outs[i].ok() && (keep == nil || keep(&ops[outs[i].Op])) {
			xs = append(xs, outs[i].ms())
		}
	}
	return xs
}

// tally counts failures and checks that every repeat of a key got the
// byte-identical body its first occurrence got. It returns the first body
// per key, in first-occurrence order.
func tally(rep *Report, ops []op, outs []outcome) (keys []string, first map[string][]byte) {
	first = map[string][]byte{}
	for i := range outs {
		o := &outs[i]
		rep.Attempted++
		if !o.ok() {
			rep.Failed++
			if rep.Failed <= 5 {
				fmt.Fprintf(os.Stderr, "flatbench: failed %s: status %d err %v body %.200s\n", ops[o.Op].Path, o.Status, o.Err, o.Body)
			}
			continue
		}
		k := ops[o.Op].Key
		if b, seen := first[k]; seen {
			if !bytes.Equal(b, o.Body) {
				rep.wrongf("%s: repeated query answered differently", k)
			}
			continue
		}
		first[k] = o.Body
		keys = append(keys, k)
	}
	return keys, first
}

// inputShares records how much of a request stream repeats itself.
func inputShares(rep *Report, ops []op) (keyShare, classShare float64) {
	if len(ops) == 0 {
		return 0, 0
	}
	keys, classes := map[string]bool{}, map[string]bool{}
	for i := range ops {
		keys[ops[i].Key] = true
		classes[ops[i].ClassKey] = true
	}
	n := float64(len(ops))
	keyShare = 1 - float64(len(keys))/n
	classShare = 1 - float64(len(classes))/n
	rep.input("repeat_key_share", keyShare, "ratio")
	rep.input("repeat_class_share", classShare, "ratio")
	return keyShare, classShare
}

func lagP99(outs []outcome) float64 {
	xs := make([]float64, len(outs))
	for i := range outs {
		xs[i] = float64(outs[i].Lag) / 1e6
	}
	return quantile(xs, 0.99)
}
