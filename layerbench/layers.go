package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"runtime"
	"time"

	"igpucomm/internal/advisord"
	"igpucomm/internal/apps/catalog"
	"igpucomm/internal/comm"
	"igpucomm/internal/devices"
	"igpucomm/internal/engine"
	"igpucomm/internal/framework"
	"igpucomm/internal/gpu"
	"igpucomm/internal/microbench"
	"igpucomm/internal/profile"
	"igpucomm/internal/soc"
	"igpucomm/internal/telemetry"
)

const (
	// probeVariants is how many seeded bring-up variants the cold-path
	// probes run.
	probeVariants = 4
	// probeBatches is how many seeded serve batches the service-path
	// probes send.
	probeBatches = 300
	// decideReps is how many framework.Advise calls one decide span
	// covers; a single call is too short to time.
	decideReps = 1000
	// catalogReps is how many times each catalog app is built.
	catalogReps = 20
)

// prober times each layer's public calls under benchmark spans. The spans
// open on tctx (which carries the tracer); the calls themselves get an
// untraced context, so the program's own spans do not inflate them.
type prober struct {
	tctx context.Context
	durs map[string][]time.Duration
	rows []metricRow
	// failed counts probe calls that erred or answered degraded.
	failed int
}

var plain = context.Background()

// layerReport is what the probes measured.
type layerReport struct {
	rows   []metricRow
	failed int
}

// probeLayers runs the three probe groups on the seed's inputs: the cold
// path on bring-up variants, the replay path on the paper-scale sweep and
// the service path on the serve schedule. Every traced run runs all three,
// whatever its workload, so every per-layer metric is always measured.
func probeLayers(tctx context.Context, seed int64) (layerReport, error) {
	p := &prober{durs: make(map[string][]time.Duration)}
	for _, g := range []struct {
		name string
		run  func(int64) error
	}{
		{"layers.cold-path", p.coldPath},
		{"layers.replay-path", p.replayPath},
		{"layers.service-path", p.servicePath},
	} {
		ctx, span := telemetry.Start(tctx, g.name)
		p.tctx = ctx
		err := g.run(seed)
		span.End()
		if err != nil {
			return layerReport{}, fmt.Errorf("%s: %w", g.name, err)
		}
		runtime.GC()
	}
	return layerReport{rows: p.rows, failed: p.failed}, nil
}

// time runs f under a span named after the layer call and records the
// span's duration.
func (p *prober) time(name string, f func() error) error {
	_, span := telemetry.Start(p.tctx, "layer:"+name)
	err := f()
	span.End()
	p.durs[name] = append(p.durs[name], span.Duration())
	return err
}

// medianMS returns the median duration recorded under name, in ms.
func (p *prober) medianMS(name string) float64 {
	xs := make([]float64, len(p.durs[name]))
	for i, d := range p.durs[name] {
		xs[i] = ms(d)
	}
	return median(xs)
}

func (p *prober) add(name string, value float64, unit string) {
	p.rows = append(p.rows, metricRow{name, value, unit})
}

// coldPath times a bring-up's layers on seeded variants: the engine's
// characterization and advice, the three micro-benchmarks, profiling and
// the decision itself.
func (p *prober) coldPath(seed int64) error {
	params := microbench.TestParams()
	ws, err := appWorkloads(catalog.Quick)
	if err != nil {
		return err
	}
	vs := newVariantStream(seed, params)
	var allocMB []float64
	for k := 0; k < probeVariants; k++ {
		v, err := vs.next()
		if err != nil {
			return err
		}
		eng := engine.New(engine.Options{})
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		var char framework.Characterization
		if err := p.time("engine.characterize", func() (err error) {
			char, err = eng.Characterize(plain, v.Config, params)
			return err
		}); err != nil {
			return err
		}
		for i, w := range ws {
			req := engine.Request{Config: v.Config, Params: params, Workload: w, Current: v.Current[i]}
			if err := p.time("engine.advise", func() error {
				_, err := eng.Advise(plain, req)
				return err
			}); err != nil {
				return err
			}
		}
		runtime.ReadMemStats(&m1)
		allocMB = append(allocMB, float64(m1.TotalAlloc-m0.TotalAlloc)/(1<<20))

		s := soc.New(v.Config)
		var mb1 microbench.MB1Result
		if err := p.time("microbench.mb1", func() error {
			for _, m := range comm.Models() {
				row, err := microbench.RunMB1Model(plain, s, params, m)
				if err != nil {
					return err
				}
				mb1.Rows = append(mb1.Rows, row)
			}
			return nil
		}); err != nil {
			return err
		}
		if err := p.time("microbench.mb2", func() error {
			for _, f := range params.MB2Fractions {
				if _, err := microbench.RunMB2GPUPoint(plain, s, params, f, mb1.PeakThroughput()); err != nil {
					return err
				}
				if _, err := microbench.RunMB2CPUPoint(plain, s, params, f); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			return err
		}
		if err := p.time("microbench.mb3", func() error {
			_, err := microbench.RunMB3(plain, s, params)
			return err
		}); err != nil {
			return err
		}
		for i, w := range ws {
			model, err := comm.ByName(v.Current[i])
			if err != nil {
				return err
			}
			var classify, current profile.Profile
			if err := p.time("profile.classify", func() (err error) {
				classify, err = framework.ClassificationProfile(plain, s, w)
				return err
			}); err != nil {
				return err
			}
			if err := p.time("profile.current", func() (err error) {
				current, err = framework.CurrentProfile(plain, s, w, model)
				return err
			}); err != nil {
				return err
			}
			if err := p.time("framework.decide", func() error {
				for r := 0; r < decideReps; r++ {
					if _, err := framework.Advise(char, classify, current, v.Current[i]); err != nil {
						return err
					}
				}
				return nil
			}); err != nil {
				return err
			}
		}
	}
	p.add("engine.characterize_ms", p.medianMS("engine.characterize"), "ms")
	p.add("engine.advise_ms", p.medianMS("engine.advise"), "ms")
	p.add("engine.alloc_mb_per_variant", median(allocMB), "MB")
	for _, mb := range []string{"mb1", "mb2", "mb3"} {
		p.add("microbench."+mb+"_ms", p.medianMS("microbench."+mb), "ms")
	}
	p.add("profile.classify_ms", p.medianMS("profile.classify"), "ms")
	p.add("profile.current_ms", p.medianMS("profile.current"), "ms")
	p.add("framework.decide_us", p.medianMS("framework.decide")*1000/decideReps, "us")
	return nil
}

// replayPath times the steady-state simulator's layers on the paper-scale
// sweep: each model's Run on one platform per board reused across the
// sweep (as the engine's pool does), then GPU compilation, replay and the
// compiled-kernel cache on the kernels the apps build.
func (p *prober) replayPath(seed int64) error {
	combos, err := sweepCombos(seed, catalog.Full)
	if err != nil {
		return err
	}
	socs := make(map[string]*soc.SoC)
	var txns, llcAccesses, llcMisses int64
	var runTime time.Duration
	for _, c := range combos {
		s := socs[c.Config.Name]
		if s == nil {
			s = soc.New(c.Config)
			socs[c.Config.Name] = s
		}
		for _, m := range comm.AllModels() {
			var rep comm.Report
			name := "comm.run." + m.Name()
			if err := p.time(name, func() (err error) {
				rep, err = m.Run(s, c.Workload)
				return err
			}); err != nil {
				return err
			}
			runTime += p.durs[name][len(p.durs[name])-1]
			txns += rep.GPU.Transactions
			llcAccesses += rep.GPU.LLC.Accesses()
			llcMisses += rep.GPU.LLC.Misses()
		}
	}
	for _, m := range comm.AllModels() {
		p.add("comm.run_ms."+m.Name(), p.medianMS("comm.run."+m.Name()), "ms")
	}
	p.add("comm.ns_per_gpu_txn", float64(runTime.Nanoseconds())/float64(txns), "ns")
	p.add("cache.gpu_llc_accesses", float64(llcAccesses), "count")
	p.add("cache.gpu_llc_misses", float64(llcMisses), "count")

	for k := range socs {
		delete(socs, k)
	}
	runtime.GC()
	var replaySum, launchSum time.Duration
	for _, cfg := range devices.All() {
		r, l, err := p.gpuDevice(cfg, combos)
		if err != nil {
			return err
		}
		replaySum += r
		launchSum += l
	}
	p.add("gpu.compile_ms", p.medianMS("gpu.compile"), "ms")
	p.add("gpu.replay_ms", p.medianMS("gpu.replay"), "ms")
	p.add("gpu.launch_ms", p.medianMS("gpu.launch"), "ms")
	// Every kernel launches once per model scope, so the replay sum is
	// scaled to the same launch count.
	n := float64(len(comm.AllModels()))
	p.add("gpu.launch_over_replay", launchSum.Seconds()/(n*replaySum.Seconds()), "ratio")
	return nil
}

// gpuDevice runs one board's GPU probes. Each app's buffers are allocated
// once on a fresh platform, and MakeKernel builds its kernels over them.
// Every kernel is compiled and replayed directly, then launched through the
// compiled-kernel cache in sweep order: one scope per model, with a state
// reset at each scope's start as Model.Run does, for two sweeps. The second
// sweep is reported, so gpu.launch_ms shows whether the cache served the
// sweep's working set. It returns the summed replay and second-sweep launch
// times.
func (p *prober) gpuDevice(cfg soc.Config, combos []combo) (replay, launch time.Duration, err error) {
	s := soc.New(cfg)
	type app struct {
		w   comm.Workload
		lay comm.Layout
	}
	var apps []app
	for _, c := range combos {
		if c.Config.Name != cfg.Name {
			continue
		}
		lay := comm.Layout{}
		for _, specs := range [][]comm.BufferSpec{c.Workload.In, c.Workload.Out, c.Workload.Scratch} {
			for _, spec := range specs {
				b, err := s.AllocDevice(c.Workload.Name+"/"+spec.Name, spec.Size)
				if err != nil {
					return 0, 0, err
				}
				lay[spec.Name] = b
			}
		}
		apps = append(apps, app{c.Workload, lay})
	}
	for _, a := range apps {
		for idx := 0; idx < max(a.w.Launches, 1); idx++ {
			k := a.w.MakeKernel(a.lay, idx)
			var ck *gpu.CompiledKernel
			if err := p.time("gpu.compile", func() (err error) {
				ck, err = s.GPU.Compile(k)
				return err
			}); err != nil {
				return 0, 0, err
			}
			if err := p.time("gpu.replay", func() error {
				_, err := s.GPU.LaunchCompiled(ck)
				return err
			}); err != nil {
				return 0, 0, err
			}
			replay += p.durs["gpu.replay"][len(p.durs["gpu.replay"])-1]
		}
	}
	for sweep := 0; sweep < 2; sweep++ {
		name := "gpu.launch.first-sweep"
		if sweep == 1 {
			name = "gpu.launch"
		}
		for _, a := range apps {
			for _, m := range comm.AllModels() {
				s.ResetState()
				l := gpu.NewLauncher(s.GPU, m.Name()+"/"+a.w.Name)
				for idx := 0; idx < max(a.w.Launches, 1); idx++ {
					k := a.w.MakeKernel(a.lay, idx)
					if err := p.time(name, func() error {
						_, err := l.Launch(idx, k)
						return err
					}); err != nil {
						return 0, 0, err
					}
					if sweep == 1 {
						launch += p.durs[name][len(p.durs[name])-1]
					}
				}
			}
		}
	}
	return replay, launch, nil
}

// servicePath times the service's layers on the seed's serve batches:
// catalog workload construction, the advisord handler and its JSON
// encoding on a warmed standalone server, and the routed client against a
// warmed 3-shard fleet.
func (p *prober) servicePath(seed int64) error {
	params := microbench.TestParams()
	qs := questions()
	sched := newSchedule(seed, qs)
	bodies := make([]advisord.AdviseBody, probeBatches)
	for i := range bodies {
		for _, q := range sched.next() {
			bodies[i].Requests = append(bodies[i].Requests, qs[q])
		}
	}

	for r := 0; r < catalogReps; r++ {
		for _, app := range catalog.Names() {
			if err := p.time("catalog.build."+app, func() error {
				_, err := catalog.ByName(app, catalog.Quick)
				return err
			}); err != nil {
				return err
			}
		}
	}
	for _, app := range catalog.Names() {
		p.add("catalog.build_ms."+app, p.medianMS("catalog.build."+app), "ms")
	}

	quiet := slog.New(slog.NewTextHandler(io.Discard, nil))
	srv := advisord.New(engine.New(engine.Options{}), advisord.Options{Params: params, Scale: catalog.Quick, Logger: quiet})
	h := srv.Handler()
	if _, err := serveHTTP(h, advisord.AdviseBody{Requests: qs}); err != nil {
		return fmt.Errorf("warm standalone server: %w", err)
	}
	degraded, shed := 0, 0
	for _, body := range bodies {
		raw, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodPost, "/v1/advise", bytes.NewReader(raw))
		_ = p.time("advisord.handler", func() error {
			h.ServeHTTP(rec, req)
			return nil
		})
		if rec.Code == http.StatusTooManyRequests {
			shed++
		}
		var resp advisord.AdviseResponse
		if rec.Code != http.StatusOK || json.Unmarshal(rec.Body.Bytes(), &resp) != nil {
			p.failed++
			continue
		}
		degraded += countDegraded(resp)
		if err := p.time("advisord.encode", func() error {
			_, err := json.Marshal(resp)
			return err
		}); err != nil {
			return err
		}
	}

	fh, err := bootFleet(params)
	if err != nil {
		return err
	}
	defer fh.close()
	if _, err := fh.client.Advise(plain, advisord.AdviseBody{Requests: qs}); err != nil {
		return fmt.Errorf("warm fleet: %w", err)
	}
	groups := 0
	for _, body := range bodies {
		owners := make(map[string]bool)
		for _, q := range body.Requests {
			cfg, err := devices.ByName(q.Device)
			if err != nil {
				return err
			}
			if err := p.time("fleet.route", func() error {
				key, err := engine.CacheKey(cfg, params)
				owners[fh.router.Owner(key)] = true
				return err
			}); err != nil {
				return err
			}
		}
		groups += len(owners)
		var resp advisord.AdviseResponse
		if err := p.time("client.advise", func() (err error) {
			resp, err = fh.client.Advise(plain, body)
			return err
		}); err != nil {
			p.failed++
			continue
		}
		degraded += countDegraded(resp)
	}
	for _, ts := range fh.servers {
		st, err := fetchStatus(&http.Client{Transport: fh.transport}, ts.URL)
		if err != nil {
			return err
		}
		shed += int(st.Resilience.RequestsShed)
	}
	rs := fh.router.Stats()
	p.failed += degraded

	p.add("advisord.handler_ms", p.medianMS("advisord.handler"), "ms")
	p.add("advisord.encode_us", p.medianMS("advisord.encode")*1000, "us")
	p.add("advisord.degraded", float64(degraded), "count")
	p.add("advisord.shed", float64(shed), "count")
	p.add("client.advise_ms", p.medianMS("client.advise")-p.medianMS("advisord.handler"), "ms")
	p.add("client.groups_per_batch", float64(groups)/float64(len(bodies)), "count")
	p.add("fleet.route_us", p.medianMS("fleet.route")*1000, "us")
	p.add("fleet.reroutes", float64(rs.Reroutes), "count")
	p.add("fleet.failures", float64(rs.Fallbacks)+float64(rs.Shards-rs.Healthy), "count")
	return nil
}

func countDegraded(resp advisord.AdviseResponse) int {
	n := 0
	for _, r := range resp.Results {
		if r.Degraded || r.Error != "" {
			n++
		}
	}
	return n
}

// serveHTTP posts body to h's /v1/advise and decodes a 200 answer.
func serveHTTP(h http.Handler, body advisord.AdviseBody) (advisord.AdviseResponse, error) {
	raw, err := json.Marshal(body)
	if err != nil {
		return advisord.AdviseResponse{}, err
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/advise", bytes.NewReader(raw)))
	if rec.Code != http.StatusOK {
		return advisord.AdviseResponse{}, fmt.Errorf("status %d: %s", rec.Code, rec.Body.String())
	}
	var resp advisord.AdviseResponse
	err = json.Unmarshal(rec.Body.Bytes(), &resp)
	return resp, err
}

// shardStatus is the part of a shard's /statusz document the probes read.
type shardStatus struct {
	Resilience struct {
		RequestsShed uint64 `json:"requests_shed"`
	} `json:"resilience"`
}

func fetchStatus(hc *http.Client, baseURL string) (shardStatus, error) {
	var st shardStatus
	resp, err := hc.Get(baseURL + "/statusz")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("statusz: status %d", resp.StatusCode)
	}
	return st, json.NewDecoder(resp.Body).Decode(&st)
}
