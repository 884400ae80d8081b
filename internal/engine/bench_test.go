package engine

import (
	"context"
	"testing"

	"igpucomm/internal/apps/catalog"
	"igpucomm/internal/comm"
	"igpucomm/internal/devices"
	"igpucomm/internal/framework"
	"igpucomm/internal/microbench"
	"igpucomm/internal/soc"
)

// sweepRequests builds the 27-point advisory sweep: 3 devices x 3 apps x 3
// current models, quick-scale workloads. The serial-vs-engine sweep
// comparison lives in perfgate (sweep/serial, sweep/engine); the benchmarks
// here isolate single mechanisms. Run with -benchtime=1x.
func sweepRequests(b *testing.B, p microbench.Params) []Request {
	b.Helper()
	var reqs []Request
	for _, cfg := range devices.All() {
		for _, app := range catalog.Names() {
			w, err := catalog.ByName(app, catalog.Quick)
			if err != nil {
				b.Fatal(err)
			}
			for _, cur := range []string{"sc", "um", "zc"} {
				reqs = append(reqs, Request{Config: cfg, Params: p, Workload: w, Current: cur})
			}
		}
	}
	return reqs
}

// The cold/warm pair isolates what the cache is worth under the paper's real
// micro-benchmark scale (DefaultParams — the characterization that dominates
// a cold request). Cold rebuilds the engine every iteration; warm reuses one
// whose memos already hold all three devices and all 27 answers.

func BenchmarkAdviseBatchCold(b *testing.B) {
	p := microbench.DefaultParams()
	reqs := sweepRequests(b, p)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := New(Options{})
		for _, res := range e.AdviseBatch(context.Background(), reqs) {
			if res.Err != nil {
				b.Fatal(res.Err)
			}
		}
	}
}

func BenchmarkAdviseBatchWarm(b *testing.B) {
	p := microbench.DefaultParams()
	reqs := sweepRequests(b, p)
	e := New(Options{})
	for _, res := range e.AdviseBatch(context.Background(), reqs) { // prime the cache
		if res.Err != nil {
			b.Fatal(res.Err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, res := range e.AdviseBatch(context.Background(), reqs) {
			if res.Err != nil {
				b.Fatal(res.Err)
			}
		}
	}
}

// BenchmarkCharacterizeSerial/Engine compare one device characterization at
// the paper's scale: the engine fans the micro-benchmark sweep points out
// across clones, so this isolates raw parallelism (on multi-core hosts) from
// the memoization the sweep benchmarks measure.

func BenchmarkCharacterizeSerial(b *testing.B) {
	cfg, err := devices.ByName(devices.TX2Name)
	if err != nil {
		b.Fatal(err)
	}
	p := microbench.DefaultParams()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := framework.Characterize(context.Background(), soc.New(cfg), p); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCharacterizeEngine(b *testing.B) {
	cfg, err := devices.ByName(devices.TX2Name)
	if err != nil {
		b.Fatal(err)
	}
	p := microbench.DefaultParams()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := New(Options{})
		if _, err := e.Characterize(context.Background(), cfg, p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExploreEngine measures the parallel brute-force ranking of all
// five models against the serial seed path.

func BenchmarkExploreSerial(b *testing.B) {
	cfg, err := devices.ByName(devices.TX2Name)
	if err != nil {
		b.Fatal(err)
	}
	w, err := catalog.ByName("shwfs", catalog.Quick)
	if err != nil {
		b.Fatal(err)
	}
	models := comm.AllModels()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := framework.Explore(soc.New(cfg), w, models); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExploreEngine(b *testing.B) {
	cfg, err := devices.ByName(devices.TX2Name)
	if err != nil {
		b.Fatal(err)
	}
	w, err := catalog.ByName("shwfs", catalog.Quick)
	if err != nil {
		b.Fatal(err)
	}
	models := comm.AllModels()
	e := New(Options{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Explore(context.Background(), cfg, w, models); err != nil {
			b.Fatal(err)
		}
	}
}
