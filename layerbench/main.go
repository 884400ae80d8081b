// Command layerbench is the repository's end-to-end benchmark. It runs one
// seeded workload against the public APIs of the engine, the advice service,
// its client and the fleet, checks every output against the serial framework
// reference, and prints the end-to-end metrics. With -trace 1 it reruns the
// same inputs with telemetry spans around each layer's public calls, writes
// them as a Chrome trace, and prints the per-layer metrics instead.
//
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Run it through run.sh, which builds it inside the checkout; README.md
// lists the workloads and metrics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"time"

	"igpucomm/internal/telemetry"
)

// An untraced run sets its workload up setupsBefore times before the timed
// loop and setupsAfter times after its output check; setup_s is the median
// of all of them, so neither one slow set-up nor host contention at one end
// of the run moves it.
const setupsBefore, setupsAfter = 3, 2

var workloadNames = []string{"bringup", "sweep", "serve"}

// workload is one benchmark scenario. A run calls setup setupsBefore times
// (each call replaces the previous state), then pass, then check.
type workload interface {
	// setup builds and warms the workload's long-lived state.
	setup(ctx context.Context) error
	// pass runs the timed loop for about d.
	pass(ctx context.Context, d time.Duration) (passStats, error)
	// check verifies every output of the passes so far against the serial
	// reference, outside any timed region, and returns how many
	// operations it found wrong.
	check(ctx context.Context) (int, error)
	// memo returns the characterization memo hits and misses of the
	// engines the workload runs on.
	memo() (hits, misses uint64)
	// close releases the workload's state.
	close()
}

// preparer is a workload whose output check needs reference answers
// before its timed loop; runOne calls prepare once, untimed, before the
// first set-up.
type preparer interface {
	prepare(ctx context.Context) error
}

// passStats is what one timed pass measured.
type passStats struct {
	// lat holds one latency per timed operation, in order (for serve, per
	// batch of the closed loop, failed batches as failedLatency).
	lat []time.Duration
	// window is how many consecutive operations of lat one window of the
	// windowed figures holds; 0 cuts lat into the windows equal slices.
	window int
	// opsPerSec is the median over windows of completed operations per
	// second of the workload's closed loop.
	opsPerSec         float64
	attempted, failed int
	// extra are workload-specific figures for the human-readable table.
	extra []metricRow
}

type metricRow struct {
	name  string
	value float64
	unit  string
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	traceDir string
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("layerbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	wl := fs.String("workload", "all", "bringup, sweep, serve, or all (each in its own process)")
	seed := fs.Int64("seed", 1, "seed the inputs are drawn from")
	seconds := fs.Int("seconds", 30, "length of the timed loop in seconds")
	trace := fs.Int("trace", 0, "1: traced run that prints the per-layer metrics and writes a Chrome trace")
	traceDir := fs.String("trace-dir", ".bench_build", "directory the Chrome trace is written to")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) || fs.NArg() > 0 {
		fmt.Fprintln(stderr, "layerbench: -seconds must be >= 1, -trace 0 or 1, and no positional arguments")
		return 2
	}
	opt := options{workload: *wl, seed: *seed, seconds: *seconds, trace: *trace == 1, traceDir: *traceDir}
	if opt.workload == "all" {
		return runAll(args, stdout, stderr)
	}
	res, err := runOne(context.Background(), opt, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "layerbench: %s: %v\n", opt.workload, err)
		return 1
	}
	raw, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "layerbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(raw))
	if !res.Correct {
		fmt.Fprintf(stderr, "layerbench: %s: %d of %d operations failed or mismatched the reference\n",
			opt.workload, res.Failed, res.Attempted)
		return 1
	}
	return 0
}

// runAll runs every workload in a child process of its own, so each
// workload's peak RSS is its own and no state crosses workloads.
func runAll(args []string, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "layerbench: %v\n", err)
		return 1
	}
	code := 0
	for _, name := range workloadNames {
		cmd := exec.Command(self, append(append([]string(nil), args...), "-workload", name)...)
		cmd.Stdout, cmd.Stderr = stdout, stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(stderr, "layerbench: %s: %v\n", name, err)
			code = 1
		}
	}
	return code
}

func newWorkload(name string, seed int64) (workload, error) {
	switch name {
	case "bringup":
		return &bringup{seed: seed}, nil
	case "sweep":
		return &sweep{seed: seed}, nil
	case "serve":
		return &serve{seed: seed}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
}

func runOne(ctx context.Context, opt options, stdout io.Writer) (result, error) {
	w, err := newWorkload(opt.workload, opt.seed)
	if err != nil {
		return result{}, err
	}
	defer w.close()
	if p, ok := w.(preparer); ok {
		if err := p.prepare(ctx); err != nil {
			return result{}, fmt.Errorf("prepare: %w", err)
		}
		runtime.GC()
	}
	var setups []float64
	// setUp replaces the workload's state with a fresh set-up, starting
	// from a collected heap handed back to the OS, and times it.
	setUp := func() error {
		w.close()
		runtime.GC()
		debug.FreeOSMemory()
		t0 := time.Now()
		if err := w.setup(ctx); err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		return nil
	}
	for i := 0; i < setupsBefore; i++ {
		if err := setUp(); err != nil {
			return result{}, err
		}
	}
	d := time.Duration(opt.seconds) * time.Second
	fmt.Fprintf(stdout, "layerbench  workload=%s  seed=%d  seconds=%d  trace=%v  GOMAXPROCS=%d\n",
		opt.workload, opt.seed, opt.seconds, opt.trace, runtime.GOMAXPROCS(0))
	if opt.trace {
		return runTraced(ctx, opt, w, d, stdout)
	}

	st, err := w.pass(ctx, d)
	if err != nil {
		return result{}, fmt.Errorf("timed pass: %w", err)
	}
	rss, err := peakRSSMB()
	if err != nil {
		return result{}, err
	}
	mism, err := w.check(ctx)
	if err != nil {
		return result{}, fmt.Errorf("output check: %w", err)
	}
	for i := 0; i < setupsAfter; i++ {
		if err := setUp(); err != nil {
			return result{}, err
		}
	}
	fmt.Fprintf(stdout, "set-ups (s): %.4f\n", setups)
	res := result{Attempted: st.attempted, Failed: st.failed + mism, Metrics: map[string]metricValue{}}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	rows := []metricRow{
		{"setup_s", median(setups), "s"},
		{"p50_ms", windowedPercentileMS(st.lat, st.window, 0.5), "ms"},
		{"ops_per_s", st.opsPerSec, "1/s"},
		{"peak_rss_mb", rss, "MB"},
	}
	for _, r := range rows {
		res.Metrics[r.name] = metricValue{Value: r.value, Unit: r.unit}
	}
	fmt.Fprintf(stdout, "samples=%d  attempted=%d  failed=%d  mismatched=%d\n", len(st.lat), st.attempted, st.failed, mism)
	prefix := map[string]string{"bringup": "bringup", "sweep": "explore", "serve": "serve_closed"}[opt.workload]
	table := append(rows,
		metricRow{prefix + "_p50_ms (whole run)", ms(percentile(st.lat, 0.5)), "ms"},
		metricRow{prefix + "_p90_ms (whole run)", ms(percentile(st.lat, 0.9)), "ms"},
		metricRow{"ops_failed_share", float64(res.Failed) / float64(max(res.Attempted, 1)), "ratio"})
	printTable(stdout, append(table, st.extra...))
	return res, nil
}

func printTable(w io.Writer, rows []metricRow) {
	for _, r := range rows {
		fmt.Fprintf(w, "  %-40s %14.4f %s\n", r.name, r.value, r.unit)
	}
}

// runTraced measures tracing overhead (an untraced then a traced pass of
// the workload, each half the run length, each from a fresh set-up so both
// draw the same seeded inputs from the same state), checks the outputs,
// and then times every layer's public calls under benchmark spans.
func runTraced(ctx context.Context, opt options, w workload, d time.Duration, stdout io.Writer) (result, error) {
	plain, err := w.pass(ctx, d/2)
	if err != nil {
		return result{}, fmt.Errorf("untraced pass: %w", err)
	}
	plainMism, err := w.check(ctx)
	if err != nil {
		return result{}, fmt.Errorf("output check: %w", err)
	}
	w.close()
	runtime.GC()
	if err := w.setup(ctx); err != nil {
		return result{}, fmt.Errorf("setup: %w", err)
	}
	tracer := telemetry.NewTracer(telemetry.TracerOptions{
		TraceID: fmt.Sprintf("layerbench-%s-%d", opt.workload, opt.seed),
	})
	tctx := telemetry.WithTracer(ctx, tracer)
	h0, m0 := w.memo()
	traced, err := w.pass(tctx, d/2)
	if err != nil {
		return result{}, fmt.Errorf("traced pass: %w", err)
	}
	h1, m1 := w.memo()
	mism, err := w.check(ctx)
	if err != nil {
		return result{}, fmt.Errorf("output check: %w", err)
	}
	mism += plainMism
	w.close()
	runtime.GC()

	layers, err := probeLayers(tctx, opt.seed)
	if err != nil {
		return result{}, fmt.Errorf("layer probes: %w", err)
	}
	attempted := plain.attempted + traced.attempted
	failed := plain.failed + traced.failed + mism + layers.failed
	untracedP50, tracedP50 := windowedPercentileMS(plain.lat, plain.window, 0.5), windowedPercentileMS(traced.lat, traced.window, 0.5)
	rows := append(layers.rows,
		metricRow{"engine.memo_hit_ratio", ratio(h1-h0, (h1-h0)+(m1-m0)), "ratio"},
		metricRow{"ops_failed_share", float64(failed) / float64(max(attempted, 1)), "ratio"},
		metricRow{"trace.untraced_p50_ms", untracedP50, "ms"},
		metricRow{"trace.traced_p50_ms", tracedP50, "ms"},
		metricRow{"trace.overhead_share", tracedP50/untracedP50 - 1, "ratio"},
	)
	sort.Slice(rows, func(i, j int) bool { return rows[i].name < rows[j].name })

	if err := os.MkdirAll(opt.traceDir, 0o755); err != nil {
		return result{}, err
	}
	path := filepath.Join(opt.traceDir, fmt.Sprintf("trace-%s-seed%d.json", opt.workload, opt.seed))
	if err := writeTrace(tracer, path); err != nil {
		return result{}, err
	}
	fmt.Fprintf(stdout, "spans=%d  chrome trace: %s\n", tracer.Len(), path)
	printTable(stdout, rows)

	res := result{Attempted: attempted, Failed: failed, Metrics: map[string]metricValue{}}
	res.Correct = failed == 0 && attempted > 0
	for _, r := range rows {
		res.Metrics[r.name] = metricValue{Value: r.value, Unit: r.unit}
	}
	return res, nil
}

func writeTrace(t *telemetry.Tracer, path string) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	return t.WriteChromeTrace(f)
}

func ratio(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}
