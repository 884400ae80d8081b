// Package experiments regenerates every table and figure of the paper's
// evaluation section (§IV) on the simulated platforms. Each experiment
// returns both a rendered artifact (internal/report) and the structured data
// the shape tests and benchmarks assert on; paper reference values are
// embedded so EXPERIMENTS.md can show paper-vs-measured side by side.
package experiments

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"igpucomm/internal/comm"
	"igpucomm/internal/devices"
	"igpucomm/internal/engine"
	"igpucomm/internal/framework"
	"igpucomm/internal/microbench"
	"igpucomm/internal/soc"
)

// Context carries one session's experiments: the characterization scale,
// an engine that memoizes the per-device characterizations (they are
// expensive and application-independent), and the platform instances the
// experiments run their workloads on.
type Context struct {
	Params microbench.Params

	eng  *engine.Engine
	socs map[string]*soc.SoC
}

// NewContext builds a context at the given characterization scale.
func NewContext(p microbench.Params) *Context {
	return &Context{
		Params: p,
		eng:    engine.New(engine.Options{}),
		socs:   make(map[string]*soc.SoC),
	}
}

// SoC returns (instantiating on first use) the named platform.
func (c *Context) SoC(name string) (*soc.SoC, error) {
	if s, ok := c.socs[name]; ok {
		return s, nil
	}
	s, err := devices.NewSoC(name)
	if err != nil {
		return nil, err
	}
	c.socs[name] = s
	return s, nil
}

// Char returns (running the micro-benchmarks on first use) the named
// platform's characterization, memoized by the context's engine.
func (c *Context) Char(ctx context.Context, name string) (framework.Characterization, error) {
	cfg, err := devices.ByName(name)
	if err != nil {
		return framework.Characterization{}, err
	}
	return c.eng.Characterize(ctx, cfg, c.Params)
}

// runModels executes a workload under the three models on one platform.
func (c *Context) runModels(name string, w comm.Workload) (map[string]comm.Report, error) {
	s, err := c.SoC(name)
	if err != nil {
		return nil, err
	}
	out := make(map[string]comm.Report, 3)
	for _, m := range comm.Models() {
		rep, err := m.Run(s, w)
		if err != nil {
			return nil, fmt.Errorf("experiments: %s under %s on %s: %w", w.Name, m.Name(), name, err)
		}
		out[m.Name()] = rep
	}
	return out, nil
}

// speedupPct is the paper's (asymmetric) percentage convention: gains are
// reported as base/new - 1 (+38% means 1.38x faster), losses as
// -(new/base - 1) (-744% means 8.44x slower).
func speedupPct(base, new float64) float64 {
	if new <= 0 || base <= 0 {
		return 0
	}
	if new <= base {
		return (base/new - 1) * 100
	}
	return -(new/base - 1) * 100
}

// Prewarm characterizes the named platforms concurrently and leaves the
// results in the engine's memo. Characterization dominates the experiments'
// wall time, so this is the 3-devices-in-the-time-of-1 fast path used by
// the benchmark harness; the engine's worker bound caps the simulations
// running at once.
func (c *Context) Prewarm(ctx context.Context, names ...string) error {
	errs := make([]error, len(names))
	var wg sync.WaitGroup
	for i, name := range names {
		wg.Add(1)
		go func(i int, name string) {
			defer wg.Done()
			if _, err := c.Char(ctx, name); err != nil {
				errs[i] = fmt.Errorf("experiments: prewarm %s: %w", name, err)
			}
		}(i, name)
	}
	wg.Wait()
	return errors.Join(errs...)
}
