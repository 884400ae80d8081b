package main

import (
	"context"
	"encoding/json"
	"reflect"
	"testing"
	"time"

	"igpucomm/internal/advisord"
	"igpucomm/internal/apps/catalog"
	"igpucomm/internal/engine"
	"igpucomm/internal/framework"
	"igpucomm/internal/microbench"
)

func drawVariants(t *testing.T, seed int64, n int) []variant {
	t.Helper()
	vs := newVariantStream(seed, microbench.TestParams())
	out := make([]variant, n)
	for i := range out {
		v, err := vs.next()
		if err != nil {
			t.Fatal(err)
		}
		out[i] = v
	}
	return out
}

func drawBatches(seed int64, n int) [][]int {
	s := newSchedule(seed, questions())
	out := make([][]int, n)
	for i := range out {
		out[i] = s.next()
	}
	return out
}

func TestSameSeedSameInputs(t *testing.T) {
	if a, b := drawVariants(t, 7, 50), drawVariants(t, 7, 50); !reflect.DeepEqual(a, b) {
		t.Error("seed 7 drew two different variant lists")
	}
	if a, b := drawBatches(7, 500), drawBatches(7, 500); !reflect.DeepEqual(a, b) {
		t.Error("seed 7 drew two different serve schedules")
	}
	a, err := sweepCombos(7, catalog.Quick)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := sweepCombos(7, catalog.Quick)
	for i := range a {
		if a[i].Config.Name != b[i].Config.Name || a[i].Workload.Name != b[i].Workload.Name {
			t.Fatalf("seed 7 drew two different sweep orders at %d", i)
		}
	}
}

func TestDifferentSeedDifferentInputs(t *testing.T) {
	if a, b := drawVariants(t, 7, 50), drawVariants(t, 8, 50); reflect.DeepEqual(a, b) {
		t.Error("seeds 7 and 8 drew the same variant list")
	}
	if a, b := drawBatches(7, 500), drawBatches(8, 500); reflect.DeepEqual(a, b) {
		t.Error("seeds 7 and 8 drew the same serve schedule")
	}
}

func TestVariantsValidAndDistinct(t *testing.T) {
	p := microbench.TestParams()
	keys := make(map[string]string)
	for _, v := range drawVariants(t, 3, 300) {
		if err := v.Config.Validate(); err != nil {
			t.Fatalf("%s: %v", v.Config.Name, err)
		}
		key, err := engine.CacheKey(v.Config, p)
		if err != nil {
			t.Fatal(err)
		}
		if prev, ok := keys[key]; ok {
			t.Fatalf("%s and %s share cache key %s", prev, v.Config.Name, key)
		}
		keys[key] = v.Config.Name
		if len(v.Current) != len(catalog.Names()) {
			t.Fatalf("%s: %d current models for %d apps", v.Config.Name, len(v.Current), len(catalog.Names()))
		}
	}
}

func TestScheduleKeepsAppSharesFixed(t *testing.T) {
	qs := questions()
	for _, seed := range []int64{1, 2, 3} {
		s := newSchedule(seed, qs)
		for r, q := range s.perm {
			if got, want := qs[q].App, serveAppOrder[r%len(serveAppOrder)]; got != want {
				t.Fatalf("seed %d: rank %d holds %s, want %s", seed, r, got, want)
			}
		}
	}
}

// TestBringupCheckCatchesPlantedMismatch plants a wrong answer among the
// outputs the bring-up check replays; the unaltered answers must pass.
func TestBringupCheckCatchesPlantedMismatch(t *testing.T) {
	ctx := context.Background()
	ws, err := appWorkloads(catalog.Quick)
	if err != nil {
		t.Fatal(err)
	}
	b := &bringup{params: microbench.TestParams(), ws: ws}
	v := drawVariants(t, 5, 1)[0]
	recs, err := serialBringup(ctx, v, b.params, ws)
	if err != nil {
		t.Fatal(err)
	}
	b.sampled = []broughtUp{{v: v, recs: recs}}
	if bad, err := b.check(ctx); err != nil || bad != 0 {
		t.Fatalf("correct outputs: bad=%d err=%v", bad, err)
	}
	planted := append([]framework.Recommendation(nil), recs...)
	planted[1].SpeedupRatio += 0.5
	b.sampled = []broughtUp{{v: v, recs: planted}}
	if bad, err := b.check(ctx); err != nil || bad != 1 {
		t.Fatalf("planted mismatch: bad=%d err=%v, want 1", bad, err)
	}
}

func TestSweepCheckCatchesPlantedMismatch(t *testing.T) {
	ctx := context.Background()
	cs, err := sweepCombos(5, catalog.Quick)
	if err != nil {
		t.Fatal(err)
	}
	s := &sweep{combos: cs[:1], eng: engine.New(engine.Options{})}
	ex, err := s.exploreOne(ctx, cs[0])
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := json.Marshal(ex)
	s.first = [][]byte{raw}
	if bad, err := s.check(ctx); err != nil || bad != 0 {
		t.Fatalf("correct outputs: bad=%d err=%v", bad, err)
	}
	ex.Ranked[0].Total++
	raw, _ = json.Marshal(ex)
	s.first = [][]byte{raw}
	if bad, err := s.check(ctx); err != nil || bad != 1 {
		t.Fatalf("planted mismatch: bad=%d err=%v, want 1", bad, err)
	}
}

func TestServeCheckCatchesPlantedMismatch(t *testing.T) {
	qs := questions()
	got := framework.Recommendation{Platform: qs[0].Device, Workload: qs[0].App, CurrentModel: qs[0].Current, Suggested: "zc"}
	resp := advisord.AdviseResponse{Results: []advisord.AdviseResult{{Recommendation: &got}}}
	s := &serve{qs: qs, ref: newOutputCheck()}

	if err := s.ref.expect(questionKey(qs[0]), got); err != nil {
		t.Fatal(err)
	}
	if !s.matches([]int{0}, resp) {
		t.Fatal("correct answer reported as a mismatch")
	}
	want := got
	want.Suggested = "sc"
	if err := s.ref.expect(questionKey(qs[0]), want); err != nil {
		t.Fatal(err)
	}
	if s.matches([]int{0}, resp) {
		t.Fatal("planted mismatch passed the check")
	}
}

func TestPercentile(t *testing.T) {
	d := make([]time.Duration, 100)
	for i := range d {
		d[i] = time.Duration(100 - i)
	}
	for _, c := range []struct {
		q    float64
		want time.Duration
	}{{0.5, 50}, {0.9, 90}, {0.99, 99}, {1, 100}} {
		if got := percentile(d, c.q); got != c.want {
			t.Errorf("percentile(%g) = %d, want %d", c.q, got, c.want)
		}
	}
}
