package engine

import (
	"context"
	"sync"
	"testing"

	"igpucomm/internal/apps/catalog"
	"igpucomm/internal/devices"
	"igpucomm/internal/microbench"
)

// TestAdviseBatchStress hammers one engine from many goroutines with
// overlapping (device, params) keys and checks the singleflight contract:
// every unique key is characterized (and every unique question answered)
// exactly once, every request still gets a full recommendation, and both
// caches' counters are arithmetically consistent.
// Run with -race; the engine's only defense is real synchronization.
func TestAdviseBatchStress(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test")
	}
	const goroutines = 32

	p := microbench.TestParams()
	names := []string{devices.NanoName, devices.TX2Name, devices.XavierName}
	apps := catalog.Names()

	// Every goroutine submits one batch covering all device x app pairs, so
	// all 32 batches contend for the same three characterization keys.
	var reqs []Request
	for _, dn := range names {
		cfg, err := devices.ByName(dn)
		if err != nil {
			t.Fatal(err)
		}
		for _, an := range apps {
			w, err := catalog.ByName(an, catalog.Quick)
			if err != nil {
				t.Fatal(err)
			}
			reqs = append(reqs, Request{Config: cfg, Params: p, Workload: w, Current: "sc"})
		}
	}

	e := New(Options{Workers: 4})
	var wg sync.WaitGroup
	errs := make(chan error, goroutines*len(reqs))
	wg.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		go func() {
			defer wg.Done()
			for i, res := range e.AdviseBatch(context.Background(), reqs) {
				if res.Err != nil {
					errs <- res.Err
					continue
				}
				if res.Rec.Suggested == "" || res.Rec.Platform != reqs[i].Config.Name {
					errs <- errMismatch(res.Rec.Platform, reqs[i].Config.Name)
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	st := e.Stats()
	total := uint64(goroutines * len(reqs))
	if st.Requests != total {
		t.Errorf("requests = %d, want %d", st.Requests, total)
	}
	if st.Batches != goroutines {
		t.Errorf("batches = %d, want %d", st.Batches, goroutines)
	}
	// Exactly one execution per unique key, no matter how many goroutines
	// raced for it: one characterization per device, one answer per
	// device x app question.
	for _, m := range []struct {
		name   string
		st     MemoStats
		unique int
	}{
		{"characterizations", st.Characterizations, len(names)},
		{"advice", st.Advice, len(reqs)},
	} {
		c := m.st
		if c.Executions != uint64(m.unique) || c.Entries != m.unique {
			t.Errorf("%s: executions = %d, entries = %d, want %d each", m.name, c.Executions, c.Entries, m.unique)
		}
		// Every request either hit the cache or missed; every miss either
		// executed or piggybacked on an in-flight execution.
		if c.Hits+c.Misses != total {
			t.Errorf("%s: hits(%d) + misses(%d) != requests(%d)", m.name, c.Hits, c.Misses, total)
		}
		if c.Misses != c.Executions+c.Shared {
			t.Errorf("%s: misses(%d) != executions(%d) + shared(%d)", m.name, c.Misses, c.Executions, c.Shared)
		}
		if c.InFlight != 0 {
			t.Errorf("%s: in_flight = %d after quiescence, want 0", m.name, c.InFlight)
		}
	}
}

type errMismatch2 struct{ got, want string }

func errMismatch(got, want string) error { return &errMismatch2{got, want} }

func (e *errMismatch2) Error() string {
	return "recommendation platform " + e.got + ", want " + e.want
}
