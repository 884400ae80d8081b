package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sync"
	"time"

	"igpucomm/internal/apps/catalog"
	"igpucomm/internal/comm"
	"igpucomm/internal/engine"
	"igpucomm/internal/framework"
	"igpucomm/internal/soc"
	"igpucomm/internal/telemetry"
)

// sweep is the steady-state simulator: a closed loop with one caller that
// repeats the 45-combo paper-scale exploration through one engine after an
// untimed priming sweep. Characterization and the memo are never touched,
// so comm model runs, GPU replay and the cache simulator do the work. Its
// windows are whole sweeps: the nine combos differ in cost several times
// over, so a window holding some combos twice would make the figures depend
// on the seeded order.
type sweep struct {
	seed   int64
	combos []combo
	eng    *engine.Engine
	next   int
	// first holds the JSON of each combo's first timed exploration; drift
	// counts later explorations that differ from it.
	first [][]byte
	drift int
}

func (s *sweep) setup(ctx context.Context) error {
	cs, err := sweepCombos(s.seed, catalog.Full)
	if err != nil {
		return err
	}
	s.combos = cs
	s.eng = engine.New(engine.Options{})
	s.next, s.first, s.drift = 0, make([][]byte, len(cs)), 0
	for _, c := range cs {
		if _, err := s.eng.Explore(ctx, c.Config, c.Workload, comm.AllModels()); err != nil {
			return fmt.Errorf("priming sweep: %w", err)
		}
	}
	return nil
}

func (s *sweep) pass(ctx context.Context, d time.Duration) (passStats, error) {
	var st passStats
	for start := time.Now(); time.Since(start) < d; s.next++ {
		i := s.next % len(s.combos)
		c := s.combos[i]
		t0 := time.Now()
		ex, err := s.exploreOne(ctx, c)
		lat := time.Since(t0)
		st.attempted++
		st.lat = append(st.lat, lat)
		if err != nil {
			st.failed++
			fmt.Fprintf(os.Stderr, "layerbench: sweep: %v\n", err)
			continue
		}
		raw, err := json.Marshal(ex)
		if err != nil {
			return st, err
		}
		if s.first[i] == nil {
			s.first[i] = raw
		} else if !bytes.Equal(raw, s.first[i]) {
			s.drift++
			fmt.Fprintf(os.Stderr, "layerbench: sweep: %s/%s exploration changed between sweeps\n", c.Config.Name, c.Workload.Name)
		}
	}
	st.window = len(s.combos)
	st.opsPerSec = windowed(st.lat, st.window, closedLoopRate)
	st.extra = []metricRow{{"sweeps", float64(len(st.lat)) / float64(len(s.combos)), "count"}}
	return st, nil
}

func (s *sweep) exploreOne(ctx context.Context, c combo) (framework.Exploration, error) {
	ctx, span := telemetry.Start(ctx, "sweep.explore",
		telemetry.String("device", c.Config.Name), telemetry.String("workload", c.Workload.Name))
	defer span.End()
	return s.eng.Explore(ctx, c.Config, c.Workload, comm.AllModels())
}

// check replays every combo through the serial framework.Explore on a fresh
// platform and holds the first timed exploration of each to it; later
// explorations were already held to the first.
func (s *sweep) check(ctx context.Context) (int, error) {
	want := make([]framework.Exploration, len(s.combos))
	errs := make([]error, len(s.combos))
	parallelFor(len(s.combos), func(i int) {
		c := s.combos[i]
		want[i], errs[i] = framework.Explore(soc.New(c.Config), c.Workload, comm.AllModels())
	})
	oc := newOutputCheck()
	bad := s.drift
	for i, c := range s.combos {
		if errs[i] != nil {
			return 0, errs[i]
		}
		if s.first[i] == nil {
			continue
		}
		key := c.Config.Name + "/" + c.Workload.Name
		if err := oc.expect(key, want[i]); err != nil {
			return 0, err
		}
		if err := oc.verify(key, json.RawMessage(s.first[i])); err != nil {
			fmt.Fprintf(os.Stderr, "layerbench: sweep: %v\n", err)
			bad++
		}
	}
	s.drift = 0
	return bad, nil
}

// parallelFor runs f(0..n-1) on GOMAXPROCS goroutines and waits for them.
func parallelFor(n int, f func(i int)) {
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				f(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		idx <- i
	}
	close(idx)
	wg.Wait()
}

func (s *sweep) memo() (uint64, uint64) {
	if s.eng == nil {
		return 0, 0
	}
	st := s.eng.Stats().Characterizations
	return st.Hits, st.Misses
}

func (s *sweep) close() { s.eng, s.combos = nil, nil }
