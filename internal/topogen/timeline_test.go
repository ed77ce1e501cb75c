package topogen_test

import (
	"reflect"
	"testing"

	"flatnet/internal/astopo"
	"flatnet/internal/cluster"
	"flatnet/internal/topogen"
	"flatnet/internal/topogen/topogentest"
)

// timelineTestScale keeps the fold fast while leaving every class and
// growth mechanism populated (hundreds of ASes, all 45+ IXPs).
const timelineTestScale = 0.012

func worldHash(in *topogen.Internet) string {
	return cluster.DatasetHash(in.Graph, in.Tier1, in.Tier2)
}

func TestSpecForYearAnchorsMatchPresets(t *testing.T) {
	for _, scale := range []float64{0.012, 0.04987, 1.0} {
		got2015, err := topogen.SpecForYear(2015, scale)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got2015, topogen.Internet2015(scale)) {
			t.Errorf("scale %v: SpecForYear(2015) differs from Internet2015", scale)
		}
		got2020, err := topogen.SpecForYear(2020, scale)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got2020, topogen.Internet2020(scale)) {
			t.Errorf("scale %v: SpecForYear(2020) differs from Internet2020", scale)
		}
	}
}

func TestSpecForYearCurves(t *testing.T) {
	// Interpolation and extrapolation anchors: AS count, IXP count,
	// content fraction, and the seed schedule.
	sp2025, err := topogen.SpecForYear(2025, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if sp2025.NumASes != 87175 {
		t.Errorf("2025 NumASes = %d, want 87175", sp2025.NumASes)
	}
	if sp2025.NumIXPs != 75 {
		t.Errorf("2025 NumIXPs = %d, want 75", sp2025.NumIXPs)
	}
	if got := sp2025.FracContent; got < 0.1499 || got > 0.1501 {
		t.Errorf("2025 FracContent = %v, want 0.15", got)
	}
	if sp2025.Seed != 20250901 {
		t.Errorf("2025 Seed = %d, want 20250901", sp2025.Seed)
	}
	prevASes, prevIXPs := 0, 0
	for y := 2015; y <= 2025; y++ {
		sp, err := topogen.SpecForYear(y, 1.0)
		if err != nil {
			t.Fatal(err)
		}
		if sp.NumASes <= prevASes || sp.NumIXPs <= prevIXPs {
			t.Errorf("year %d: growth curves must be strictly increasing (ASes %d<=%d or IXPs %d<=%d)",
				y, sp.NumASes, prevASes, sp.NumIXPs, prevIXPs)
		}
		prevASes, prevIXPs = sp.NumASes, sp.NumIXPs
	}
	if _, err := topogen.SpecForYear(2014, 1.0); err == nil {
		t.Error("SpecForYear(2014) should fail")
	}
	if _, err := topogen.SpecForYear(2026, 1.0); err == nil {
		t.Error("SpecForYear(2026) should fail")
	}
}

func TestCloudPeeringCurvesGrow(t *testing.T) {
	// Microsoft's flattening (PeerTransit 0.22 -> 0.74) is the paper's
	// headline trend; the interpolated years must walk it monotonically.
	prev := -1.0
	for y := 2015; y <= 2025; y++ {
		sp, err := topogen.SpecForYear(y, 1.0)
		if err != nil {
			t.Fatal(err)
		}
		var ms topogen.Profile
		for _, p := range sp.Clouds {
			if p.Name == "Microsoft" {
				ms = p
			}
		}
		if ms.PeerTransit < prev {
			t.Errorf("year %d: Microsoft PeerTransit %v below previous year %v", y, ms.PeerTransit, prev)
		}
		prev = ms.PeerTransit
	}
}

func TestEvolveStepDeterministic(t *testing.T) {
	base, err := topogen.GenerateYear(2016, timelineTestScale)
	if err != nil {
		t.Fatal(err)
	}
	d1, err := topogen.EvolveStep(base, 2017, timelineTestScale)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := topogen.EvolveStep(base, 2017, timelineTestScale)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(d1, d2) {
		t.Fatal("EvolveStep is not deterministic: two runs over the same base world differ")
	}
	// The same delta must also fall out when the base world was built by
	// an independent fold.
	base2, err := topogen.GenerateYear(2016, timelineTestScale)
	if err != nil {
		t.Fatal(err)
	}
	d3, err := topogen.EvolveStep(base2, 2017, timelineTestScale)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(d1, d3) {
		t.Fatal("EvolveStep differs across independently generated (equal) base worlds")
	}
}

// TestAdjacentYearsByteIdentical is the tentpole equivalence: for every
// adjacent year pair, applying the stored delta to year N reproduces the
// freshly generated year N+1 world exactly — same world hash, same link
// list, same annotations.
func TestAdjacentYearsByteIdentical(t *testing.T) {
	in, err := topogen.GenerateYear(2015, timelineTestScale)
	if err != nil {
		t.Fatal(err)
	}
	for y := 2016; y <= 2025; y++ {
		d, err := topogen.EvolveStep(in, y, timelineTestScale)
		if err != nil {
			t.Fatalf("year %d: %v", y, err)
		}
		evolved, err := topogen.ApplyDelta(in, d)
		if err != nil {
			t.Fatalf("year %d: %v", y, err)
		}
		fresh, err := topogen.GenerateYear(y, timelineTestScale)
		if err != nil {
			t.Fatalf("year %d: %v", y, err)
		}
		if gh, fh := worldHash(evolved), worldHash(fresh); gh != fh {
			t.Fatalf("year %d: evolved world hash %s != fresh %s", y, gh[:16], fh[:16])
		}
		if !reflect.DeepEqual(evolved.Graph.Links(), fresh.Graph.Links()) {
			t.Fatalf("year %d: evolved link list differs from fresh", y)
		}
		if !reflect.DeepEqual(evolved.Meta, fresh.Meta) {
			t.Fatalf("year %d: evolved annotations differ from fresh", y)
		}
		if !reflect.DeepEqual(evolved.IXPs, fresh.IXPs) {
			t.Fatalf("year %d: evolved IXPs differ from fresh", y)
		}
		if !reflect.DeepEqual(evolved.Spec, fresh.Spec) {
			t.Fatalf("year %d: evolved spec differs from fresh", y)
		}
		in = evolved
	}
}

// TestApplyDeltaMatchesReference diffs the spliced apply against the
// refreeze-from-scratch definition for every adjacent year pair: same
// world hash, frozen arrays, link list, annotations and IXPs.
func TestApplyDeltaMatchesReference(t *testing.T) {
	in, err := topogen.GenerateYear(2015, timelineTestScale)
	if err != nil {
		t.Fatal(err)
	}
	for y := 2016; y <= 2025; y++ {
		d, err := topogen.EvolveStep(in, y, timelineTestScale)
		if err != nil {
			t.Fatalf("year %d: %v", y, err)
		}
		got, err := topogen.ApplyDelta(in, d)
		if err != nil {
			t.Fatalf("year %d: %v", y, err)
		}
		want, err := topogentest.ApplyDeltaReference(in, d)
		if err != nil {
			t.Fatalf("year %d: reference: %v", y, err)
		}
		if gh, wh := worldHash(got), worldHash(want); gh != wh {
			t.Fatalf("year %d: spliced world hash %s != reference %s", y, gh[:16], wh[:16])
		}
		if !reflect.DeepEqual(got.Graph.Frozen(), want.Graph.Frozen()) {
			t.Fatalf("year %d: spliced graph arrays differ from the reference", y)
		}
		if !reflect.DeepEqual(got.Graph.Links(), want.Graph.Links()) {
			t.Fatalf("year %d: spliced link list differs from the reference", y)
		}
		if !reflect.DeepEqual(got.Meta, want.Meta) {
			t.Fatalf("year %d: merged annotations differ from the reference", y)
		}
		if !reflect.DeepEqual(got.IXPs, want.IXPs) {
			t.Fatalf("year %d: IXPs differ from the reference", y)
		}
		if !reflect.DeepEqual(got.Spec, want.Spec) || !reflect.DeepEqual(got.Tier1, want.Tier1) ||
			!reflect.DeepEqual(got.Tier2, want.Tier2) || !reflect.DeepEqual(got.Clouds, want.Clouds) ||
			!reflect.DeepEqual(got.Hypergiants, want.Hypergiants) {
			t.Fatalf("year %d: spec or named sets differ from the reference", y)
		}
		in = got
	}
}

// TestApplyDeltaMetaMerge covers the annotation merge's corner cases
// against the reference: a new AS listed twice (last listing wins), a
// listing that re-annotates a base AS, an endpoint annotated by nobody,
// and a base AS that loses its last link.
func TestApplyDeltaMetaMerge(t *testing.T) {
	base, err := topogen.GenerateYear(2016, timelineTestScale)
	if err != nil {
		t.Fatal(err)
	}
	d, err := topogen.EvolveStep(base, 2017, timelineTestScale)
	if err != nil {
		t.Fatal(err)
	}
	nodes := base.Graph.ASes()
	named := nodes[0] // a named network: its name and PoPs must survive
	var stub astopo.ASN
	for _, a := range nodes {
		if base.Graph.Degree(a) == 1 && a > named {
			stub = a
			break
		}
	}
	if stub == 0 {
		t.Fatal("no single-homed AS in the base world")
	}
	var stubLink astopo.Link
	for _, l := range base.Graph.Links() {
		if l.A == stub || l.B == stub {
			stubLink = l
		}
	}
	e := *d
	e.RemovedLinks = append(append([]astopo.Link(nil), d.RemovedLinks...), stubLink)
	e.AddedLinks = append(append([]astopo.Link(nil), d.AddedLinks...),
		astopo.Link{A: named, B: 4000000001, Rel: astopo.P2C},
		astopo.Link{A: named, B: 4000000002, Rel: astopo.P2P})
	e.NewASes = append(append([]topogen.NewAS(nil), d.NewASes...),
		topogen.NewAS{ASN: 4000000001, Class: topogen.ClassAccess, Home: 3},
		topogen.NewAS{ASN: named, Class: topogen.ClassContent, Home: 5},
		topogen.NewAS{ASN: 4000000001, Class: topogen.ClassEnterprise, Home: 7},
		topogen.NewAS{ASN: 4000000003, Class: topogen.ClassAccess, Home: 9})
	got, err := topogen.ApplyDelta(base, &e)
	if err != nil {
		t.Fatal(err)
	}
	want, err := topogentest.ApplyDeltaReference(base, &e)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := got.Graph.Index(stub); ok {
		t.Fatalf("AS%d kept after losing its last link", stub)
	}
	if !reflect.DeepEqual(got.Meta, want.Meta) {
		t.Fatal("merged annotations differ from the reference")
	}
	if got.ClassOf(4000000001) != topogen.ClassEnterprise || got.ClassOf(named) != topogen.ClassContent {
		t.Fatal("NewAS listings did not override in order")
	}
	if got.NameOf(named) != base.NameOf(named) {
		t.Fatalf("AS%d lost its name: %q", named, got.NameOf(named))
	}
}

// TestTimelineWorldsAuditClean: every evolved year remains a structurally
// sound topology — no provider cycles, no islands, clique intact, every
// new AS reachable through at least one provider.
func TestTimelineWorldsAuditClean(t *testing.T) {
	for _, y := range []int{2016, 2018, 2021, 2025} {
		in, err := topogen.GenerateYear(y, timelineTestScale)
		if err != nil {
			t.Fatalf("year %d: %v", y, err)
		}
		if issues := astopo.Audit(in.Graph); len(issues) != 0 {
			t.Errorf("year %d: audit found %d issues, first: %+v", y, len(issues), issues[0])
		}
		wantIXPs := 45 + 3*(y-2015)
		if len(in.IXPs) != wantIXPs {
			t.Errorf("year %d: %d IXPs, want %d", y, len(in.IXPs), wantIXPs)
		}
		sp, _ := topogen.SpecForYear(y, timelineTestScale)
		if in.Graph.NumASes() != sp.NumASes {
			t.Errorf("year %d: %d ASes, want %d", y, in.Graph.NumASes(), sp.NumASes)
		}
	}
}

func TestGenerateYearMatchesBasePreset(t *testing.T) {
	in, err := topogen.GenerateYear(2015, timelineTestScale)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := topogen.Generate(topogen.Internet2015(timelineTestScale))
	if err != nil {
		t.Fatal(err)
	}
	if worldHash(in) != worldHash(direct) {
		t.Fatal("GenerateYear(2015) differs from the 2015 preset world")
	}
}

func TestApplyDeltaFailsClosed(t *testing.T) {
	base, err := topogen.GenerateYear(2016, timelineTestScale)
	if err != nil {
		t.Fatal(err)
	}
	good, err := topogen.EvolveStep(base, 2017, timelineTestScale)
	if err != nil {
		t.Fatal(err)
	}

	copyDelta := func() *topogen.GrowthDelta {
		d := *good
		d.RemovedLinks = append([]astopo.Link(nil), good.RemovedLinks...)
		d.AddedLinks = append([]astopo.Link(nil), good.AddedLinks...)
		d.IXPJoins = append([]topogen.IXPJoin(nil), good.IXPJoins...)
		return &d
	}

	t.Run("wrong base year", func(t *testing.T) {
		d := copyDelta()
		d.FromYear, d.ToYear = 2017, 2018
		if _, err := topogen.ApplyDelta(base, d); err == nil {
			t.Fatal("want error for mispaired delta")
		}
	})
	t.Run("removal not in base", func(t *testing.T) {
		d := copyDelta()
		d.RemovedLinks = append(d.RemovedLinks, astopo.Link{A: 1, B: 2, Rel: astopo.P2P})
		if _, err := topogen.ApplyDelta(base, d); err == nil {
			t.Fatal("want error for unmatched removal")
		}
	})
	t.Run("duplicate addition", func(t *testing.T) {
		d := copyDelta()
		d.AddedLinks = append(d.AddedLinks, base.Graph.Links()[0])
		if _, err := topogen.ApplyDelta(base, d); err == nil {
			t.Fatal("want error for addition that already exists")
		}
	})
	t.Run("removal listed twice", func(t *testing.T) {
		d := copyDelta()
		d.RemovedLinks = append(d.RemovedLinks, d.RemovedLinks[0])
		if _, err := topogen.ApplyDelta(base, d); err == nil {
			t.Fatal("want error for a duplicate removal")
		}
	})
	t.Run("addition listed twice", func(t *testing.T) {
		d := copyDelta()
		l := d.AddedLinks[0]
		d.AddedLinks = append(d.AddedLinks, astopo.Link{A: l.B, B: l.A, Rel: astopo.P2P})
		if _, err := topogen.ApplyDelta(base, d); err == nil {
			t.Fatal("want error for an addition listed twice")
		}
	})
	t.Run("self link", func(t *testing.T) {
		d := copyDelta()
		d.AddedLinks = append(d.AddedLinks, astopo.Link{A: 15169, B: 15169, Rel: astopo.P2P})
		if _, err := topogen.ApplyDelta(base, d); err == nil {
			t.Fatal("want error for a self link")
		}
	})
	t.Run("invalid relationship", func(t *testing.T) {
		d := copyDelta()
		d.AddedLinks = append(d.AddedLinks, astopo.Link{A: 15169, B: 4000000000, Rel: astopo.C2P})
		if _, err := topogen.ApplyDelta(base, d); err == nil {
			t.Fatal("want error for an addition stored as c2p")
		}
	})
	t.Run("IXP index out of range", func(t *testing.T) {
		d := copyDelta()
		d.IXPJoins = append(d.IXPJoins, topogen.IXPJoin{IXP: int32(len(base.IXPs)), Member: 15169})
		if _, err := topogen.ApplyDelta(base, d); err == nil {
			t.Fatal("want error for out-of-range IXP join")
		}
	})
	t.Run("good delta still applies", func(t *testing.T) {
		if _, err := topogen.ApplyDelta(base, good); err != nil {
			t.Fatalf("unmodified delta should apply: %v", err)
		}
	})
}
