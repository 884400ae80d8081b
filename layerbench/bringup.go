package main

import (
	"context"
	"fmt"
	"os"
	"time"

	"igpucomm/internal/apps/catalog"
	"igpucomm/internal/comm"
	"igpucomm/internal/engine"
	"igpucomm/internal/framework"
	"igpucomm/internal/microbench"
	"igpucomm/internal/soc"
	"igpucomm/internal/telemetry"
)

// bringupCheckEvery sets which bring-ups the output check replays serially:
// every bringupCheckEvery-th, starting with the first. The serial reference
// costs about twice a timed bring-up, so checking all of them would
// dominate the run.
const bringupCheckEvery = 25

// bringup is a user bringing up new boards: a closed loop with one caller
// and one long-lived engine at quick scale. Each operation takes a new
// board variant to advice for all three catalog apps. Every variant misses
// the memo, adds a pool key and starts with a cold compiled-kernel cache,
// so MB1-MB3, GPU compilation and profiling do almost all the work.
type bringup struct {
	seed    int64
	params  microbench.Params
	ws      []comm.Workload
	eng     *engine.Engine
	stream  *variantStream
	done    int
	sampled []broughtUp
}

// broughtUp is one bring-up's output kept for the check.
type broughtUp struct {
	v    variant
	recs []framework.Recommendation
}

func (b *bringup) setup(ctx context.Context) error {
	b.params = microbench.TestParams()
	ws, err := appWorkloads(catalog.Quick)
	if err != nil {
		return err
	}
	b.ws = ws
	b.eng = engine.New(engine.Options{})
	b.stream = newVariantStream(b.seed, b.params)
	b.done, b.sampled = 0, nil
	// Warm the runtime on each unperturbed base board, none of which is in
	// the seeded stream, so the first timed bring-up does not also pay for
	// first-use costs.
	for _, base := range variantBases {
		warm := variant{Config: base(), Current: make([]string, len(ws))}
		for i := range warm.Current {
			warm.Current[i] = "sc"
		}
		if _, err := b.bringOne(ctx, warm); err != nil {
			return err
		}
	}
	return nil
}

func (b *bringup) bringOne(ctx context.Context, v variant) ([]framework.Recommendation, error) {
	ctx, span := telemetry.Start(ctx, "bringup.variant", telemetry.String("device", v.Config.Name))
	defer span.End()
	recs := make([]framework.Recommendation, len(b.ws))
	for i, w := range b.ws {
		rec, err := b.eng.Advise(ctx, engine.Request{Config: v.Config, Params: b.params, Workload: w, Current: v.Current[i]})
		if err != nil {
			return nil, fmt.Errorf("advise %s/%s: %w", v.Config.Name, w.Name, err)
		}
		recs[i] = rec
	}
	return recs, nil
}

func (b *bringup) pass(ctx context.Context, d time.Duration) (passStats, error) {
	var st passStats
	for start := time.Now(); time.Since(start) < d; {
		v, err := b.stream.next()
		if err != nil {
			return st, err
		}
		t0 := time.Now()
		recs, err := b.bringOne(ctx, v)
		lat := time.Since(t0)
		st.attempted++
		st.lat = append(st.lat, lat)
		if err != nil {
			st.failed++
			fmt.Fprintf(os.Stderr, "layerbench: bringup: %v\n", err)
		} else if b.done%bringupCheckEvery == 0 {
			b.sampled = append(b.sampled, broughtUp{v: v, recs: recs})
		}
		b.done++
	}
	st.opsPerSec = windowed(st.lat, 0, closedLoopRate)
	st.extra = []metricRow{{"variants_checked", float64(len(b.sampled)), "count"}}
	return st, nil
}

func (b *bringup) check(ctx context.Context) (int, error) {
	bad := 0
	for _, got := range b.sampled {
		want, err := serialBringup(ctx, got.v, b.params, b.ws)
		if err != nil {
			return 0, err
		}
		oc := newOutputCheck()
		for i, rec := range want {
			key := got.v.Config.Name + "/" + b.ws[i].Name
			if err := oc.expect(key, rec); err != nil {
				return 0, err
			}
			if err := oc.verify(key, got.recs[i]); err != nil {
				fmt.Fprintf(os.Stderr, "layerbench: bringup: %v\n", err)
				bad++
				break
			}
		}
	}
	b.sampled = nil
	return bad, nil
}

// serialBringup is the reference: serial characterization and advice on a
// fresh platform.
func serialBringup(ctx context.Context, v variant, p microbench.Params, ws []comm.Workload) ([]framework.Recommendation, error) {
	s := soc.New(v.Config)
	char, err := framework.Characterize(ctx, s, p)
	if err != nil {
		return nil, err
	}
	recs := make([]framework.Recommendation, len(ws))
	for i, w := range ws {
		if recs[i], err = framework.AdviseWorkload(ctx, char, s, w, v.Current[i]); err != nil {
			return nil, err
		}
	}
	return recs, nil
}

func (b *bringup) memo() (uint64, uint64) {
	if b.eng == nil {
		return 0, 0
	}
	st := b.eng.Stats().Characterizations
	return st.Hits, st.Misses
}

func (b *bringup) close() { b.eng, b.sampled = nil, nil }
