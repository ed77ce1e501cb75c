package serve

// POST /v1/evolve: walk the served world one step along the timeline by
// applying a delta snapshot (see internal/snapshot/delta.go). The request
// body is a delta file verbatim. Evolution is fail-closed end to end —
// the delta's recorded base hash must match the served world, applying
// must succeed, and the produced world's hash must match the delta's
// recorded result hash — and atomic: queries either see the old world or
// the new one, never a mixture, because every handler pins the world
// pointer once and every cache key carries the world's hash prefix.

import (
	"bytes"
	"fmt"
	"io"
	"net/http"

	"flatnet/internal/core"
	"flatnet/internal/snapshot"
	"flatnet/internal/topogen"
)

// maxDeltaBody bounds the evolve request body; growth deltas are a few MB
// even at scale 1.0, so 64 MiB is generous without inviting abuse.
const maxDeltaBody = 64 << 20

// errWorldEvolved reports that the world rotated while a cluster fan-out
// was in flight, so the merged result may mix topologies and is discarded
// instead of cached. Worlds are monotonic — the pool never returns to a
// previous content address — so a post-fan-out world check that still
// matches proves every merged shard (and any local fallback) computed on
// the pinned world.
var errWorldEvolved = &apiError{Status: http.StatusConflict, Code: "world_evolved",
	Message: "the world evolved while the query was in flight; retry"}

// verifyWorld is the post-fan-out check: err passes through untouched, a
// clean result is kept only if the pool still serves the world the request
// pinned.
func (s *Server) verifyWorld(ws *worldState, err error) error {
	if err == nil && s.pool.World() != ws.id {
		return errWorldEvolved
	}
	return err
}

type evolveResponse struct {
	FromWorld string `json:"from_world"`
	ToWorld   string `json:"to_world"`
	FromYear  int    `json:"from_year"`
	ToYear    int    `json:"to_year"`

	ASes         int `json:"ases"`
	Links        int `json:"links"`
	NewASes      int `json:"new_ases"`
	AddedLinks   int `json:"added_links"`
	RemovedLinks int `json:"removed_links"`
}

func (s *Server) handleEvolve(w http.ResponseWriter, r *http.Request) {
	raw, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxDeltaBody))
	if err != nil {
		s.writeError(w, badRequestf("reading delta body: %v", err))
		return
	}
	d, err := snapshot.DecodeDelta(raw)
	if err != nil {
		s.writeError(w, badRequestf("%v", err))
		return
	}
	// One evolution at a time: the load → apply → swap sequence below must
	// not interleave with another, or the second would apply to a world
	// that is no longer served.
	s.evolveMu.Lock()
	defer s.evolveMu.Unlock()
	ws := s.w()
	if ws.in == nil {
		s.writeError(w, &apiError{Status: http.StatusConflict, Code: "not_evolvable",
			Message: "this world was loaded from a bare relationship file and carries no generation lineage; serve a snapshot or generated world to evolve"})
		return
	}
	if d.BaseHash != ws.id {
		s.writeError(w, &apiError{Status: http.StatusConflict, Code: "world_mismatch",
			Message: fmt.Sprintf("delta applies to world %.12s…, this server serves %.12s…", d.BaseHash, ws.id)})
		return
	}
	next, err := topogen.ApplyDelta(ws.in, d.Growth)
	if err != nil {
		s.writeError(w, &apiError{Status: http.StatusUnprocessableEntity, Code: "apply_failed",
			Message: fmt.Sprintf("applying delta %d→%d: %v", d.FromYear, d.ToYear, err)})
		return
	}
	ds := core.Dataset{Graph: next.Graph, Tier1: next.Tier1, Tier2: next.Tier2}
	// The evolved world exists only in memory, so it advertises freshly
	// encoded snapshot bytes: workers re-join by syncing those, exactly as
	// they would bootstrap from a generated world.
	snapGen := func() ([]byte, error) {
		var buf bytes.Buffer
		err := snapshot.Write(&buf, &snapshot.World{
			Scale:     d.Scale,
			Internets: map[int]*topogen.Internet{d.ToYear: next},
		})
		return buf.Bytes(), err
	}
	// Building the state hashes the new world once; that hash is the one
	// checked against the delta's promise.
	nextWS := newWorldState(ds, next.NameOf, next, d.ToYear, "", snapGen)
	if nextWS.id != d.ResultHash {
		// Fail closed: the delta promised a world it did not produce. The
		// served world is untouched.
		s.writeError(w, &apiError{Status: http.StatusUnprocessableEntity, Code: "result_mismatch",
			Message: fmt.Sprintf("applied delta produced world %.12s…, but the delta promised %.12s…", nextWS.id, d.ResultHash)})
		return
	}
	// Rotate the pool first, then publish: a fan-out admitted on the old
	// world either finds its workers already dropped (and falls back
	// locally, where verifyWorld discards the result) or completes on
	// workers that still hold the old world — consistent either way.
	s.pool.SetWorld(nextWS.id)
	s.world.Store(nextWS)
	s.stats.evolves.Add(1)
	writeJSON(w, http.StatusOK, evolveResponse{
		FromWorld: ws.id, ToWorld: nextWS.id,
		FromYear: d.FromYear, ToYear: d.ToYear,
		ASes: next.Graph.NumASes(), Links: next.Graph.NumLinks(),
		NewASes: len(d.Growth.NewASes), AddedLinks: len(d.Growth.AddedLinks),
		RemovedLinks: len(d.Growth.RemovedLinks),
	})
}
