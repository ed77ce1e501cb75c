package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/gob"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"flatnet/internal/astopo"
	"flatnet/internal/cluster"
	"flatnet/internal/core"
	"flatnet/internal/snapshot"
	"flatnet/internal/topogen"
)

// The preparation cache holds everything a run needs but does not time:
// the served worlds as v2 snapshot files, the prebuilt timeline deltas,
// and reference answers computed by fresh, uncached core sweeps. It is
// keyed by the benchmark binary's hash, so a rebuilt program never reads
// answers its predecessor computed.

func cacheDirFor(exe string) (string, error) {
	f, err := os.Open(exe)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return filepath.Join(filepath.Dir(exe), "cache", fmt.Sprintf("%x", h.Sum(nil))[:16]), nil
}

// kinds lists the four reachability kinds in core.Kind order (the Fig. 2
// set); reference vectors are indexed the same way.
var kinds = []core.Kind{core.Full, core.ProviderFree, core.Tier1Free, core.HierarchyFree}

// worldAnswers is a world's reference answers: its content address, its
// ASNs in dense graph-index order, each AS's origin equivalence class and
// per-kind all-AS reachability counts in the same order (nil for kinds
// not computed).
type worldAnswers struct {
	Hash   string
	ASNs   []uint32
	Class  []int32
	Counts [4][]int32
	index  map[astopo.ASN]int
}

func (wa *worldAnswers) idx(a astopo.ASN) (int, bool) {
	if wa.index == nil {
		wa.index = make(map[astopo.ASN]int, len(wa.ASNs))
		for i, x := range wa.ASNs {
			wa.index[astopo.ASN(x)] = i
		}
	}
	i, ok := wa.index[a]
	return i, ok
}

// count is the reference reachability of a under kind k.
func (wa *worldAnswers) count(a astopo.ASN, k core.Kind) (int, bool) {
	i, ok := wa.idx(a)
	if !ok || len(wa.Counts[k]) == 0 {
		return 0, false
	}
	return int(wa.Counts[k][i]), true
}

func answersFor(in *topogen.Internet, ks ...core.Kind) (*worldAnswers, error) {
	g := in.Graph
	wa := &worldAnswers{Hash: cluster.DatasetHash(g, in.Tier1, in.Tier2)}
	for i := 0; i < g.NumASes(); i++ {
		wa.ASNs = append(wa.ASNs, uint32(g.ASNAt(i)))
	}
	m := core.New(core.Dataset{Graph: g, Tier1: in.Tier1, Tier2: in.Tier2})
	ci := m.Classes()
	for i := 0; i < g.NumASes(); i++ {
		wa.Class = append(wa.Class, ci.ClassOf(i))
	}
	for _, k := range ks {
		counts, err := m.ReachabilityAll(k)
		if err != nil {
			return nil, err
		}
		v := make([]int32, len(counts))
		for i, c := range counts {
			v[i] = int32(c)
		}
		wa.Counts[k] = v
	}
	return wa, nil
}

// timelineData is the evolve-timeline preparation: the 2015 world's
// answers and one prebuilt delta per year up to 2025, each with the
// answers of the world it must produce.
type timelineData struct {
	Base  *worldAnswers
	Steps []timelineStep
}

type timelineStep struct {
	FromYear, ToYear int
	Delta            []byte // encoded .snapd delta, the POST /v1/evolve body
	Result           *worldAnswers
}

const (
	timelineFrom = 2015
	timelineTo   = 2025
)

func (c *Config) worldPath() string {
	return filepath.Join(c.CacheDir, fmt.Sprintf("world2020-%g.snap", c.serveScale()))
}
func (c *Config) answersPath() string {
	return filepath.Join(c.CacheDir, fmt.Sprintf("answers2020-%g.gob", c.serveScale()))
}
func (c *Config) world2015Path() string {
	return filepath.Join(c.CacheDir, fmt.Sprintf("world2015-%g.snap", c.serveScale()))
}
func (c *Config) timelinePath() string {
	return filepath.Join(c.CacheDir, fmt.Sprintf("timeline-%g.gob", c.serveScale()))
}

func exists(path string) bool {
	_, err := os.Stat(path)
	return err == nil
}

// writeAtomic writes via a temporary file and a rename, so an interrupted
// preparation never leaves a truncated cache entry behind.
func writeAtomic(path string, write func(io.Writer) error) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), ".tmp-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if err := write(tmp); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

func writeGob(path string, v any) error {
	return writeAtomic(path, func(w io.Writer) error { return gob.NewEncoder(w).Encode(v) })
}

func readGob(path string, v any) error {
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("reading preparation (run with -prepare first): %w", err)
	}
	defer f.Close()
	return gob.NewDecoder(f).Decode(v)
}

func writeWorld(path string, year int, scale float64, in *topogen.Internet) error {
	return writeAtomic(path, func(w io.Writer) error {
		return snapshot.Write(w, &snapshot.World{Scale: scale, Internets: map[int]*topogen.Internet{year: in}})
	})
}

// prepareServeWorld generates the 2020 world, stores it as a snapshot,
// and records its all-AS answers for all four kinds.
func prepareServeWorld(cfg *Config) error {
	if exists(cfg.worldPath()) && exists(cfg.answersPath()) {
		return nil
	}
	in, err := topogen.Generate(topogen.Internet2020(cfg.serveScale()))
	if err != nil {
		return err
	}
	wa, err := answersFor(in, kinds...)
	if err != nil {
		return err
	}
	if err := writeWorld(cfg.worldPath(), 2020, cfg.serveScale(), in); err != nil {
		return err
	}
	return writeGob(cfg.answersPath(), wa)
}

// prepareTimeline generates the 2015 world and folds it forward to 2025
// with topogen.EvolveStep, recording every delta and the hierarchy-free
// answers of every independently applied world.
func prepareTimeline(cfg *Config) error {
	if exists(cfg.world2015Path()) && exists(cfg.timelinePath()) {
		return nil
	}
	scale := cfg.serveScale()
	prev, err := topogen.GenerateYear(timelineFrom, scale)
	if err != nil {
		return err
	}
	td := &timelineData{}
	if td.Base, err = answersFor(prev, core.HierarchyFree); err != nil {
		return err
	}
	if err := writeWorld(cfg.world2015Path(), timelineFrom, scale, prev); err != nil {
		return err
	}
	baseHash := td.Base.Hash
	for y := timelineFrom + 1; y <= timelineTo; y++ {
		g, err := topogen.EvolveStep(prev, y, scale)
		if err != nil {
			return err
		}
		next, err := topogen.ApplyDelta(prev, g)
		if err != nil {
			return err
		}
		res, err := answersFor(next, core.HierarchyFree)
		if err != nil {
			return err
		}
		var buf bytes.Buffer
		d := &snapshot.Delta{FromYear: g.FromYear, ToYear: g.ToYear, Scale: g.Scale,
			BaseHash: baseHash, ResultHash: res.Hash, Growth: g}
		if err := snapshot.EncodeDelta(&buf, d); err != nil {
			return err
		}
		td.Steps = append(td.Steps, timelineStep{FromYear: g.FromYear, ToYear: g.ToYear, Delta: buf.Bytes(), Result: res})
		prev, baseHash = next, res.Hash
	}
	return writeGob(cfg.timelinePath(), td)
}
