package advisord

import (
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"sync"
	"testing"

	"igpucomm/internal/devices"
	"igpucomm/internal/engine"
	"igpucomm/internal/telemetry"
)

func scrapeMetrics(t *testing.T, ts *httptest.Server) string {
	t.Helper()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("Content-Type = %q, want Prometheus text format", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

// TestMetricsEndpoint exercises the full scrape surface: HTTP instruments
// from the middleware, build identity, and the engine cache counters.
func TestMetricsEndpoint(t *testing.T) {
	_, ts := testServer(t)

	// Generate traffic the scrape should reflect: one advise batch (engine
	// counters), one health check, one prior scrape (endpoint label).
	postAdvise(t, ts, AdviseBody{Requests: []AdviseRequest{
		{Device: devices.TX2Name, App: "shwfs", Current: "sc"},
	}})
	if _, err := http.Get(ts.URL + "/healthz"); err != nil {
		t.Fatal(err)
	}
	scrapeMetrics(t, ts)

	got := scrapeMetrics(t, ts)
	for _, want := range []string{
		"# TYPE igpucomm_http_requests_total counter",
		`igpucomm_http_requests_total{endpoint="/v1/advise"} 1`,
		`igpucomm_http_requests_total{endpoint="/healthz"} 1`,
		`igpucomm_http_requests_total{endpoint="/metrics"}`,
		`igpucomm_http_responses_total{code="200"}`,
		"# TYPE igpucomm_http_request_duration_seconds histogram",
		`igpucomm_http_request_duration_seconds_bucket{endpoint="/v1/advise",le="+Inf"} 1`,
		"igpucomm_build_info{",
		"igpucomm_engine_requests_total 1",
		"igpucomm_engine_batches_total 1",
		"igpucomm_engine_char_cache_executions_total 1",
		"igpucomm_engine_char_cache_misses_total 1",
		"igpucomm_engine_pool_workers 2",
		"igpucomm_uptime_seconds",
	} {
		if !strings.Contains(got, want) {
			t.Fatalf("scrape missing %q:\n%s", want, got)
		}
	}
}

// TestMetricsRegisterCacheFamilies pins the naming contract the igpulint
// metricname suppressions in registerCacheMetrics rely on: every name the
// helper assembles from its constant prefix and table stays inside the
// igpucomm_engine_<cache>_cache_* family and ends in a sanctioned unit.
func TestMetricsRegisterCacheFamilies(t *testing.T) {
	reg := telemetry.NewRegistry()
	registerCacheMetrics(reg, "char", "characterization",
		func() engine.MemoStats { return engine.MemoStats{} })
	registerCacheMetrics(reg, "mb1", "MB1",
		func() engine.MemoStats { return engine.MemoStats{} })
	registerCacheMetrics(reg, "advice", "advice",
		func() engine.MemoStats { return engine.MemoStats{} })

	var buf strings.Builder
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, line := range strings.Split(buf.String(), "\n") {
		if !strings.HasPrefix(line, "# TYPE ") {
			continue
		}
		names[strings.Fields(line)[2]] = true
	}
	if len(names) != 24 {
		t.Fatalf("expected 24 metric families (8 per cache), got %d: %v", len(names), names)
	}
	shape := regexp.MustCompile(`^igpucomm_engine_(char|mb1|advice)_cache_[a-z0-9]+(_[a-z0-9]+)*$`)
	for name := range names {
		if !shape.MatchString(name) {
			t.Errorf("metric %q escapes the igpucomm_engine_<cache>_cache_* family", name)
		}
		ok := false
		for _, unit := range []string{"_total", "_entries", "_in_flight"} {
			if strings.HasSuffix(name, unit) {
				ok = true
			}
		}
		if !ok {
			t.Errorf("metric %q does not end in a sanctioned unit suffix", name)
		}
	}
}

func TestMetricsBoundsEndpointLabels(t *testing.T) {
	_, ts := testServer(t)
	// Unknown paths must collapse into one label, not mint new ones.
	for _, p := range []string{"/nope", "/also/nope", "/v1/advise/extra"} {
		resp, err := http.Get(ts.URL + p)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	got := scrapeMetrics(t, ts)
	if !strings.Contains(got, `igpucomm_http_requests_total{endpoint="other"} 3`) {
		t.Fatalf("unknown paths should share the \"other\" endpoint label:\n%s", got)
	}
	if strings.Contains(got, `endpoint="/nope"`) {
		t.Fatal("unknown path leaked into the endpoint label space")
	}
}

func TestTraceIDHeader(t *testing.T) {
	_, ts := testServer(t)

	// Generated when absent: 16 hex digits.
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	id := resp.Header.Get("X-Trace-Id")
	if !regexp.MustCompile(`^[0-9a-f]{16}$`).MatchString(id) {
		t.Fatalf("generated X-Trace-Id = %q, want 16 hex digits", id)
	}

	// Echoed when the client supplies one.
	req, err := http.NewRequest(http.MethodGet, ts.URL+"/healthz", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Trace-Id", "my-request-42")
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if got := resp2.Header.Get("X-Trace-Id"); got != "my-request-42" {
		t.Fatalf("X-Trace-Id = %q, want the echoed client ID", got)
	}
}

func TestStatuszReportsBuild(t *testing.T) {
	_, ts := testServer(t)
	var status statuszResponse
	getJSON(t, ts.URL+"/statusz", &status)
	if status.Build.GoVersion == "" {
		t.Fatalf("statusz build info missing go version: %+v", status.Build)
	}
	if status.Build.Main == "" {
		t.Fatalf("statusz build info missing module: %+v", status.Build)
	}
}

// TestConcurrentScrapesDuringAdvise runs metric and status scrapes
// concurrently with advise batches; under -race (CI runs this package with
// it) this proves /metrics and /statusz take consistent snapshots while the
// engine mutates its counters.
func TestConcurrentScrapesDuringAdvise(t *testing.T) {
	_, ts := testServer(t)

	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			postAdvise(t, ts, AdviseBody{Requests: []AdviseRequest{
				{Device: devices.TX2Name, App: "shwfs", Current: "sc"},
				{Device: devices.XavierName, App: "orbslam", Current: "zc"},
			}})
		}()
	}
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 5; j++ {
				resp, err := http.Get(ts.URL + "/statusz")
				if err != nil {
					t.Error(err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				resp, err = http.Get(ts.URL + "/metrics")
				if err != nil {
					t.Error(err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}()
	}
	wg.Wait()

	got := scrapeMetrics(t, ts)
	if !strings.Contains(got, "igpucomm_engine_batches_total 4") {
		t.Fatalf("engine batch counter should reach 4:\n%s", got)
	}
}
