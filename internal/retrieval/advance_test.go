package retrieval

import (
	"testing"

	"repro/internal/geom"
	"repro/internal/index"
)

// TestPlanOnlyClientMatchesFullClient drives a plan-only client (nil
// session, PlanFrame + Advance — the mode the network client uses) next
// to a full client over the same frames: the plans must be identical at
// every step.
func TestPlanOnlyClientMatchesFullClient(t *testing.T) {
	srv := testServer(t, 4, 30)
	full := NewClient(NewSession(srv), nil)
	plan := NewClient(nil, nil)

	frames := []struct {
		q geom.Rect2
		s float64
	}{
		{geom.R2(0, 0, 200, 200), 0.8},
		{geom.R2(50, 20, 250, 220), 0.8},
		{geom.R2(50, 20, 250, 220), 0.2},   // slow down in place
		{geom.R2(700, 700, 900, 900), 0.5}, // teleport
		{geom.R2(720, 710, 920, 910), 0.9}, // speed up while moving
	}
	for i, f := range frames {
		want := full.PlanFrame(f.q, f.s)
		got := plan.PlanFrame(f.q, f.s)
		if len(got) != len(want) {
			t.Fatalf("frame %d: %d sub-queries vs %d", i, len(got), len(want))
		}
		for j := range want {
			if got[j].Region != want[j].Region ||
				got[j].WMin != want[j].WMin || got[j].WMax != want[j].WMax {
				t.Fatalf("frame %d sub-query %d: %+v vs %+v", i, j, got[j], want[j])
			}
		}
		full.Frame(f.q, f.s)
		plan.Advance(f.q, f.s)
	}
}

// TestFrameOnNilSessionPanics documents the plan-only contract.
func TestFrameOnNilSessionPanics(t *testing.T) {
	c := NewClient(nil, nil)
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	c.Frame(geom.R2(0, 0, 1, 1), 0.5)
}

// TestFrustumFrameFiltersAndDedups verifies direction-aware retrieval:
// only coefficients inside the sector arrive, nothing is double-sent
// across frames, and turning in place streams exactly the newly visible
// sector.
func TestFrustumFrameFiltersAndDedups(t *testing.T) {
	srv := testServer(t, 10, 50)
	c := NewClient(NewSession(srv), nil)

	apex := geom.V2(500, 500)
	east := geom.NewFrustum(apex, 0, 1.2, 400)
	resp, w := c.FrustumFrame(east, 0.3)
	if w != 0.3 {
		t.Fatalf("resolution = %v", w)
	}
	for _, id := range resp.IDs {
		if !east.Contains(index.MustCoeff(srv.Store(), id).Pos.XY()) {
			t.Fatalf("delivered coefficient outside the frustum")
		}
	}
	// Repeating the same view delivers nothing.
	again, _ := c.FrustumFrame(east, 0.3)
	if len(again.IDs) != 0 {
		t.Fatalf("repeat frustum delivered %d", len(again.IDs))
	}
	// Turning around delivers only the newly visible sector.
	west := geom.NewFrustum(apex, 3.14159, 1.2, 400)
	turned, _ := c.FrustumFrame(west, 0.3)
	for _, id := range turned.IDs {
		p := index.MustCoeff(srv.Store(), id).Pos.XY()
		if !west.Contains(p) {
			t.Fatalf("delivered coefficient outside the new frustum")
		}
		if east.Contains(p) {
			t.Fatalf("re-delivered a coefficient from the first view")
		}
	}
	// Sanity: both views together match one wide-open query, minus the
	// sectors' complement.
	if len(resp.IDs) == 0 || len(turned.IDs) == 0 {
		t.Fatal("expected data in both views")
	}
}

// TestFilterDoesNotPoisonDeliveredSet ensures a filtered-out coefficient
// remains retrievable later.
func TestFilterDoesNotPoisonDeliveredSet(t *testing.T) {
	srv := testServer(t, 4, 51)
	session := NewSession(srv)
	all := geom.R2(0, 0, 1000, 1000)
	// First: a query whose filter rejects everything.
	none := session.RetrieveScratch([]SubQuery{{
		Region: all, WMin: 0, WMax: 1,
		Filter: func(geom.Vec3) bool { return false },
	}})
	if len(none.IDs) != 0 {
		t.Fatalf("rejecting filter delivered %d", len(none.IDs))
	}
	// Then an unfiltered query must deliver the full set.
	full := session.RetrieveScratch([]SubQuery{{Region: all, WMin: 0, WMax: 1}})
	if int64(len(full.IDs)) != srv.Store().NumCoeffs() {
		t.Fatalf("delivered %d of %d after filtered query",
			len(full.IDs), srv.Store().NumCoeffs())
	}
}
