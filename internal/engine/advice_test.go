package engine

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"igpucomm/internal/apps/catalog"
	"igpucomm/internal/comm"
	"igpucomm/internal/cpu"
	"igpucomm/internal/devices"
	"igpucomm/internal/faults"
	"igpucomm/internal/framework"
	"igpucomm/internal/microbench"
	"igpucomm/internal/profile"
	"igpucomm/internal/soc"
)

// countingWorkload wraps w's CPU task with a counter, so a test can tell a
// profiling execution from a memo hit. The wrapper does not change what the
// workload simulates, so it keeps w's Fingerprint.
func countingWorkload(w comm.Workload, n *atomic.Int64) comm.Workload {
	task := w.CPUTask
	w.CPUTask = func(c *cpu.CPU, lay comm.Layout) {
		n.Add(1)
		task(c, lay)
	}
	return w
}

func mustCatalog(t *testing.T, app string, sc catalog.Scale) comm.Workload {
	t.Helper()
	w, err := catalog.ByName(app, sc)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestAdviceMemo pins the advice memo's contract: it keys on workload
// content (not name), skips workloads without a fingerprint, shares one
// execution among concurrent identical questions, answers hits without a
// worker slot, and never caches errors.
func TestAdviceMemo(t *testing.T) {
	p := microbench.TestParams()
	cfg, err := devices.ByName(devices.TX2Name)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	char, err := framework.Characterize(ctx, soc.New(cfg), p)
	if err != nil {
		t.Fatal(err)
	}
	req := func(w comm.Workload) Request {
		return Request{Config: cfg, Params: p, Workload: w, Current: "sc"}
	}

	cases := []struct {
		name string
		run  func(t *testing.T, e *Engine)
	}{
		{"same name at two scales", func(t *testing.T, e *Engine) {
			quick := mustCatalog(t, "shwfs", catalog.Quick)
			micro := mustCatalog(t, "shwfs", catalog.Micro)
			if quick.Name != micro.Name || quick.Fingerprint == micro.Fingerprint {
				t.Fatalf("scales share name %q; fingerprints must differ: %q vs %q",
					quick.Name, quick.Fingerprint, micro.Fingerprint)
			}
			for _, w := range []comm.Workload{quick, micro} {
				serial, err := framework.AdviseWorkload(ctx, char, soc.New(cfg), w, "sc")
				if err != nil {
					t.Fatal(err)
				}
				want := mustJSON(t, serial)
				for i := 0; i < 2; i++ {
					rec, err := e.Advise(ctx, req(w))
					if err != nil {
						t.Fatal(err)
					}
					if got := mustJSON(t, rec); !bytes.Equal(got, want) {
						t.Errorf("call %d diverges from framework.AdviseWorkload:\nwant %s\n got %s", i, want, got)
					}
				}
			}
			if st := e.Stats().Advice; st.Entries != 2 || st.Executions != 2 || st.Hits != 2 {
				t.Errorf("advice memo = %+v, want 2 entries / 2 executions / 2 hits", st)
			}
		}},
		{"no fingerprint executes every call", func(t *testing.T, e *Engine) {
			var runs atomic.Int64
			w := countingWorkload(mustCatalog(t, "shwfs", catalog.Micro), &runs)
			w.Fingerprint = ""
			perCall := int64(0)
			for i := 1; i <= 3; i++ {
				if _, err := e.Advise(ctx, req(w)); err != nil {
					t.Fatal(err)
				}
				if i == 1 {
					perCall = runs.Load()
				}
				if perCall == 0 || runs.Load() != int64(i)*perCall {
					t.Fatalf("after %d calls the CPU task ran %d times, want %d", i, runs.Load(), int64(i)*perCall)
				}
			}
			if st := e.Stats().Advice; st != (MemoStats{}) {
				t.Errorf("advice memo = %+v, want untouched", st)
			}
		}},
		{"concurrent identical requests share one execution", func(t *testing.T, e *Engine) {
			var runs atomic.Int64
			w := countingWorkload(mustCatalog(t, "shwfs", catalog.Micro), &runs)
			const callers = 32
			recs := make([][]byte, callers)
			var wg sync.WaitGroup
			wg.Add(callers)
			for i := 0; i < callers; i++ {
				go func(i int) {
					defer wg.Done()
					rec, err := e.AdviseWith(ctx, char, req(w))
					if err != nil {
						t.Error(err)
						return
					}
					recs[i] = mustJSON(t, rec)
				}(i)
			}
			wg.Wait()
			st := e.Stats().Advice
			if st.Executions != 1 || st.Hits+st.Shared != callers-1 || st.InFlight != 0 {
				t.Errorf("advice memo = %+v, want 1 execution and %d hits+shared", st, callers-1)
			}
			// One unmemoized execution on a fresh engine is the reference.
			var want atomic.Int64
			solo := countingWorkload(mustCatalog(t, "shwfs", catalog.Micro), &want)
			solo.Fingerprint = ""
			if _, err := New(Options{Workers: 1}).AdviseWith(ctx, char, req(solo)); err != nil {
				t.Fatal(err)
			}
			if runs.Load() != want.Load() {
				t.Errorf("CPU task ran %d times for %d callers, want %d (one execution)", runs.Load(), callers, want.Load())
			}
			for i := 1; i < callers; i++ {
				if !bytes.Equal(recs[i], recs[0]) {
					t.Errorf("caller %d got a different answer", i)
				}
			}
		}},
		{"hit takes no worker slot", func(t *testing.T, e *Engine) {
			w := mustCatalog(t, "shwfs", catalog.Micro)
			want, err := e.AdviseWith(ctx, char, req(w))
			if err != nil {
				t.Fatal(err)
			}
			// Hold every slot, as running simulations would: a hit must
			// still answer instead of queueing behind them.
			for i := 0; i < e.Workers(); i++ {
				e.sem.acquire()
			}
			defer func() {
				for i := 0; i < e.Workers(); i++ {
					e.sem.release()
				}
			}()
			type answer struct {
				rec framework.Recommendation
				err error
			}
			done := make(chan answer, 1)
			go func() {
				rec, err := e.AdviseWith(ctx, char, req(w))
				done <- answer{rec, err}
			}()
			select {
			case got := <-done:
				if got.err != nil {
					t.Fatal(got.err)
				}
				if !bytes.Equal(mustJSON(t, got.rec), mustJSON(t, want)) {
					t.Error("hit returned a different answer")
				}
			case <-time.After(10 * time.Second):
				t.Fatal("hit queued behind the held worker slots")
			}
		}},
		{"injected profiling error is not cached", func(t *testing.T, e *Engine) {
			w := mustCatalog(t, "shwfs", catalog.Micro)
			if err := faults.Activate(faults.NewPlan(1, faults.Rule{Point: "profile.collect", Mode: faults.ModeError, Every: 1, Count: 1})); err != nil {
				t.Fatal(err)
			}
			defer faults.ResetInjected()
			defer faults.Deactivate()
			var fe *faults.Error
			if _, err := e.AdviseWith(ctx, char, req(w)); !errors.As(err, &fe) {
				t.Fatalf("first call err = %v, want the injected *faults.Error", err)
			}
			for i := 0; i < 2; i++ {
				if _, err := e.AdviseWith(ctx, char, req(w)); err != nil {
					t.Fatalf("retry %d after the injected error: %v", i, err)
				}
			}
			if st := e.Stats().Advice; st.Executions != 2 || st.Hits != 1 || st.Entries != 1 {
				t.Errorf("advice memo = %+v, want 2 executions (failed + retried) / 1 hit / 1 entry", st)
			}
		}},
		{"rejected current model runs no model", func(t *testing.T, e *Engine) {
			for _, cur := range []string{"sc-async", "hybrid", "bogus"} {
				var runs atomic.Int64
				w := countingWorkload(mustCatalog(t, "shwfs", catalog.Micro), &runs)
				_, want := framework.Advise(char, profile.Profile{}, profile.Profile{}, cur)
				r := req(w)
				r.Current = cur
				_, err := e.AdviseWith(ctx, char, r)
				if err == nil || want == nil || err.Error() != want.Error() {
					t.Fatalf("current %q: err = %v, want Advise's %v", cur, err, want)
				}
				if runs.Load() != 0 {
					t.Errorf("current %q: the workload ran %d times before the rejection", cur, runs.Load())
				}
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) { tc.run(t, New(Options{Workers: 2})) })
	}
}
