package main

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"sync"
	"time"

	"igpucomm/internal/advisord"
	"igpucomm/internal/advisord/client"
	"igpucomm/internal/apps/catalog"
	"igpucomm/internal/devices"
	"igpucomm/internal/engine"
	"igpucomm/internal/fleet"
	"igpucomm/internal/microbench"
	"igpucomm/internal/telemetry"
)

const (
	// serveRate is the fixed arrival rate the latency percentiles are
	// measured at, in batches per second.
	serveRate = 200
	// serveLimit is the p99 latency a ladder rate must meet to count
	// towards capacity; a rung whose generator falls this far behind its
	// schedule has a growing backlog.
	serveLimit = 25 * time.Millisecond
	// maxInFlight bounds the batches the open-loop generator has
	// outstanding: one per vCPU of the 2-vCPU reference host, so the load
	// generator never outnumbers the cores the fleet runs on.
	maxInFlight = 2
	// failedLatency stands in for a failed batch's latency, so a failure
	// counts as missing any latency limit.
	failedLatency = time.Hour
	// rungBatches is how many batches a ladder rung above the fixed rate
	// sends, so that its p99 has ten batches beyond it.
	rungBatches = 1000
)

// serveLadder is the fixed ladder of arrival rates (batches/s) the capacity
// search climbs; capacity is the highest rung that meets serveLimit with no
// failures and no growing backlog. The first rung is the fixed-rate phase.
var serveLadder = []float64{serveRate, 250, 300, 400, 500, 650, 800, 1000}

var shardIDs = []string{"shard-a", "shard-b", "shard-c"}

// serve is the service path: an open loop against a 3-shard advisord fleet
// through the shard-aware client. Set-up answers every question once, so
// timed traffic is advice-memo hits: JSON, HTTP, routing, memo lookups and
// per-request workload construction, no simulation.
type serve struct {
	seed   int64
	params microbench.Params
	qs     []advisord.AdviseRequest
	sched  *schedule
	fl     *fleetHarness
	ref    *outputCheck
	// mismatched counts served batches whose answers differ from the
	// reference. Each load phase is checked as it ends, outside its
	// timing, so no answer outlives its phase.
	mismatched int
}

// fleetHarness is an in-process advisord fleet of httptest servers and the
// shard-aware client that reaches it.
type fleetHarness struct {
	servers   []*httptest.Server
	engines   []*engine.Engine
	router    *fleet.Router
	client    *client.Client
	transport *http.Transport
}

func bootFleet(p microbench.Params) (*fleetHarness, error) {
	fh := &fleetHarness{}
	shards := make([]fleet.Shard, len(shardIDs))
	for i, id := range shardIDs {
		ts := httptest.NewUnstartedServer(nil)
		fh.servers = append(fh.servers, ts)
		shards[i] = fleet.Shard{ID: id, URL: "http://" + ts.Listener.Addr().String()}
	}
	quiet := slog.New(slog.NewTextHandler(io.Discard, nil))
	for i, id := range shardIDs {
		st, err := fleet.NewState(id, shards, fleet.DefaultVNodes)
		if err != nil {
			fh.close()
			return nil, err
		}
		eng := engine.New(engine.Options{KeyRole: st.KeyRole})
		srv := advisord.New(eng, advisord.Options{Params: p, Scale: catalog.Quick, Logger: quiet, Fleet: st})
		fh.engines = append(fh.engines, eng)
		fh.servers[i].Config.Handler = srv.Handler()
		fh.servers[i].Start()
	}
	rt, err := fleet.NewRouter(fleet.RouterOptions{Shards: shards, VNodes: fleet.DefaultVNodes})
	if err != nil {
		fh.close()
		return nil, err
	}
	fh.router = rt
	fh.transport = &http.Transport{MaxIdleConnsPerHost: maxInFlight}
	fh.client = client.New(client.Options{Fleet: rt, Params: p, HTTPClient: &http.Client{Transport: fh.transport}})
	return fh, nil
}

func (fh *fleetHarness) close() {
	for _, ts := range fh.servers {
		ts.Close()
	}
	if fh.transport != nil {
		fh.transport.CloseIdleConnections()
	}
}

// prepare asks a direct engine every question once, before any fleet
// boots, so the check has its reference and the reference engine's memory
// is released before the fleet's peak RSS is measured.
func (s *serve) prepare(ctx context.Context) error {
	s.params = microbench.TestParams()
	s.qs = questions()
	ref, err := directAnswers(ctx, s.qs, s.params)
	if err != nil {
		return fmt.Errorf("reference answers: %w", err)
	}
	s.ref = ref
	return nil
}

func (s *serve) setup(ctx context.Context) error {
	s.sched = newSchedule(s.seed, s.qs)
	s.mismatched = 0
	fh, err := bootFleet(s.params)
	if err != nil {
		return err
	}
	s.fl = fh
	resp, err := fh.client.Advise(ctx, advisord.AdviseBody{Requests: s.qs})
	if err != nil {
		return fmt.Errorf("answer every question: %w", err)
	}
	for i, r := range resp.Results {
		if r.Recommendation == nil || r.Degraded {
			return fmt.Errorf("set-up answer for %+v: degraded=%v error=%q", s.qs[i], r.Degraded, r.Error)
		}
	}
	return nil
}

// phase is one run of the load generator.
type phase struct {
	rate      float64 // batches/s; 0 for the closed loop
	lat       []time.Duration
	done      []time.Time // completion instants, in send order
	failed    int
	start     time.Time
	elapsed   time.Duration
	finalLate time.Duration
}

type job struct {
	due time.Time
	qs  []int
}

// served is one batch's outcome as a worker recorded it.
type served struct {
	sent, done time.Time
	ok         bool
	qs         []int
	resp       advisord.AdviseResponse
}

// runLoad sends batches for dur with at most maxInFlight outstanding. With
// rate > 0 it is an open loop: a batch is due every 1/rate seconds and is
// timed from its due time, so a batch that waits for a free slot waits on
// the clock and a stall shows in the latency of every batch behind it.
// With rate 0 it is a closed loop: each worker sends its next batch as soon
// as the last one returns. Once the phase has ended, every answer is held
// to the reference and dropped.
func (s *serve) runLoad(ctx context.Context, rate float64, dur time.Duration) phase {
	ph := phase{rate: rate}
	jobs := make(chan job)
	out := make([][]served, maxInFlight)
	var wg sync.WaitGroup
	for w := range out {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				if j.due.IsZero() {
					j.due = time.Now()
				}
				resp, ok := s.serveBatch(ctx, j.qs)
				out[w] = append(out[w], served{j.due, time.Now(), ok, j.qs, resp})
			}
		}()
	}
	ph.start = time.Now()
	for i := 0; ; i++ {
		var due time.Time
		if rate > 0 {
			due = ph.start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
			if due.Sub(ph.start) >= dur {
				break
			}
			if wait := time.Until(due); wait > 0 {
				time.Sleep(wait)
			}
		} else if time.Since(ph.start) >= dur {
			break
		}
		jobs <- job{due: due, qs: s.sched.next()}
		if rate > 0 {
			ph.finalLate = time.Since(due)
		}
	}
	close(jobs)
	wg.Wait()
	ph.elapsed = time.Since(ph.start)
	var all []served
	for _, rs := range out {
		all = append(all, rs...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].sent.Before(all[j].sent) })
	for _, r := range all {
		lat := r.done.Sub(r.sent)
		if !r.ok {
			ph.failed++
			lat = failedLatency
		} else if !s.matches(r.qs, r.resp) {
			s.mismatched++
		}
		ph.lat = append(ph.lat, lat)
		ph.done = append(ph.done, r.done)
	}
	return ph
}

// windowedRate is the median over windows equal slices of the phase of the
// batches completed per second.
func (ph phase) windowedRate() float64 {
	span := ph.elapsed / windows
	counts := make([]float64, windows)
	for _, t := range ph.done {
		if w := int(t.Sub(ph.start) / span); w < windows {
			counts[w]++
		}
	}
	for w := range counts {
		counts[w] /= span.Seconds()
	}
	return median(counts)
}

// serveBatch posts one batch through the fleet client and reports whether
// every answer came back non-degraded.
func (s *serve) serveBatch(ctx context.Context, qs []int) (advisord.AdviseResponse, bool) {
	ctx, span := telemetry.Start(ctx, "serve.batch")
	defer span.End()
	body := advisord.AdviseBody{Requests: make([]advisord.AdviseRequest, len(qs))}
	for i, q := range qs {
		body.Requests[i] = s.qs[q]
	}
	resp, err := s.fl.client.Advise(ctx, body)
	if err != nil {
		fmt.Fprintf(os.Stderr, "layerbench: serve: %v\n", err)
		return resp, false
	}
	if len(resp.Results) != len(qs) {
		return resp, false
	}
	for _, r := range resp.Results {
		if r.Recommendation == nil || r.Degraded || r.Error != "" {
			return resp, false
		}
	}
	return resp, true
}

// pass spends a fifth of d at the fixed rate (at 30 s, 1200 batches, so
// p99 has twelve beyond it), two fifths in the closed loop and the rest
// climbing the capacity ladder. The end-to-end latency and rate come from
// the closed loop: on the shared 2-vCPU reference host, steal-time bursts
// moved the fixed-rate p90 by up to 3x through queueing (a ten-seed spread
// of 0.37-0.56), while the closed loop's p50 and rate spread 0.12 or less.
// The fixed-rate percentiles, timed from due time, and the ladder go to
// the human-readable table.
func (s *serve) pass(ctx context.Context, d time.Duration) (passStats, error) {
	fixed := s.runLoad(ctx, serveRate, d/5)
	closed := s.runLoad(ctx, 0, 2*d/5)
	st := passStats{
		lat:       closed.lat,
		opsPerSec: closed.windowedRate(),
		attempted: len(fixed.lat) + len(closed.lat),
		failed:    fixed.failed + closed.failed,
	}
	st.extra = []metricRow{
		{"serve_p50_ms (200/s, whole run)", ms(percentile(fixed.lat, 0.5)), "ms"},
		{"serve_p90_ms (200/s, whole run)", ms(percentile(fixed.lat, 0.9)), "ms"},
		{"serve_p99_ms (200/s, whole run)", ms(percentile(fixed.lat, 0.99)), "ms"},
		{"serve_fixed_final_late_ms", ms(fixed.finalLate), "ms"},
	}
	s.climb(ctx, &st, fixed, d-d/5-2*d/5)
	return st, nil
}

// climb runs the capacity ladder, whose first rung is the fixed-rate phase
// already run. Each higher rung sends rungBatches batches. The climb stops
// at the first rung with a failure, a generator more than serveLimit behind
// (a growing backlog) or p99 over serveLimit, or before a rung that would
// overrun budget; a climb cut by its budget reports its last rung, a lower
// bound.
func (s *serve) climb(ctx context.Context, st *passStats, first phase, budget time.Duration) {
	var last phase
	capacity := 0.0
	for i, rate := range serveLadder {
		ph := first
		if i > 0 {
			dur := time.Duration(rungBatches / rate * float64(time.Second))
			if dur > budget {
				break
			}
			budget -= dur
			ph = s.runLoad(ctx, rate, dur)
			st.attempted += len(ph.lat)
			st.failed += ph.failed
		}
		p99 := percentile(ph.lat, 0.99)
		st.extra = append(st.extra, metricRow{fmt.Sprintf("ladder_%g_p99_ms", rate), ms(p99), "ms"})
		if ph.failed > 0 || ph.finalLate > serveLimit {
			break
		}
		if p99 > serveLimit {
			capacity = interpolateCapacity(last, ph)
			break
		}
		capacity, last = rate, ph
	}
	st.extra = append(st.extra, metricRow{"serve_capacity_rps", capacity, "batches/s"})
}

// interpolateCapacity estimates the rate at which p99 latency reaches
// serveLimit between the last rung that met it and the first that missed
// on latency alone, so capacity moves smoothly with the service instead of
// jumping from rung to rung.
func interpolateCapacity(pass, miss phase) float64 {
	if pass.rate == 0 {
		return 0
	}
	lo, hi := ms(percentile(pass.lat, 0.99)), ms(percentile(miss.lat, 0.99))
	return pass.rate + (miss.rate-pass.rate)*(ms(serveLimit)-lo)/(hi-lo)
}

// matches holds one served batch's answers to the direct-engine answers
// for the same questions.
func (s *serve) matches(qs []int, resp advisord.AdviseResponse) bool {
	for j, q := range qs {
		if err := s.ref.verify(questionKey(s.qs[q]), *resp.Results[j].Recommendation); err != nil {
			fmt.Fprintf(os.Stderr, "layerbench: serve: %v\n", err)
			return false
		}
	}
	return true
}

// check reports how many served batches differed from the reference since
// the last check; runLoad held each phase's answers to it as the phase
// ended.
func (s *serve) check(context.Context) (int, error) {
	bad := s.mismatched
	s.mismatched = 0
	return bad, nil
}

func questionKey(q advisord.AdviseRequest) string { return q.Device + "/" + q.App + "/" + q.Current }

// directAnswers asks every question directly of an engine, without the
// service in between. Each device gets a fresh engine, so at most one
// device's characterization is held at a time.
func directAnswers(ctx context.Context, qs []advisord.AdviseRequest, p microbench.Params) (*outputCheck, error) {
	var eng *engine.Engine
	oc := newOutputCheck()
	for i, q := range qs {
		if i == 0 || q.Device != qs[i-1].Device {
			eng = engine.New(engine.Options{})
		}
		cfg, err := devices.ByName(q.Device)
		if err != nil {
			return nil, err
		}
		w, err := catalog.ByName(q.App, catalog.Quick)
		if err != nil {
			return nil, err
		}
		rec, err := eng.Advise(ctx, engine.Request{Config: cfg, Params: p, Workload: w, Current: q.Current})
		if err != nil {
			return nil, err
		}
		if err := oc.expect(questionKey(q), rec); err != nil {
			return nil, err
		}
	}
	return oc, nil
}

func (s *serve) memo() (hits, misses uint64) {
	if s.fl == nil {
		return 0, 0
	}
	for _, e := range s.fl.engines {
		st := e.Stats().Characterizations
		hits += st.Hits
		misses += st.Misses
	}
	return hits, misses
}

func (s *serve) close() {
	if s.fl != nil {
		s.fl.close()
		s.fl = nil
	}
}
