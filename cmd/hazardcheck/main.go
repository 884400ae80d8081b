// Command hazardcheck is the framework's verification gate. With no flags it
// statically verifies every catalogued platform × case-study application ×
// communication model: the model's buffer placement (no overlapping or empty
// allocations), the §III-C tiled schedule (per-phase CPU/GPU tile
// disjointness and barrier ordering under a vector-clock model), and a
// transaction-level replay of the kernel's coalesced trace interleaved with
// the CPU's accesses and the model's coherence protocol (RAW/WAR/WAW and
// flush-ordering hazards). Source and documentation lints live in
// cmd/igpulint.
//
// Usage:
//
//	hazardcheck                            # verify all combinations
//	hazardcheck -device jetson-tx2 -app shwfs -model zc
//	hazardcheck -no-trace                  # schedule + layout proofs only
//
// Exit status 1 when any hazard is reported.
package main

import (
	"flag"
	"fmt"
	"igpucomm/internal/buildinfo"
	"os"
	"strings"

	"igpucomm/internal/apps/catalog"
	"igpucomm/internal/comm"
	"igpucomm/internal/devices"
)

func main() {
	device := flag.String("device", "", "restrict to one platform (default: all)")
	app := flag.String("app", "", "restrict to one application (default: all)")
	model := flag.String("model", "", "restrict to one communication model (default: all)")
	noTrace := flag.Bool("no-trace", false, "skip the transaction-level trace replay")
	verbose := flag.Bool("v", false, "print every finding, not just the per-combination summary")
	version := flag.Bool("version", false, "print build information and exit")
	flag.Parse()

	if *version {
		fmt.Println(buildinfo.Get())
		return
	}

	os.Exit(runVerify(*device, *app, *model, !*noTrace, *verbose))
}

func runVerify(device, app, model string, trace, verbose bool) int {
	devs, all := []string{}, []string{}
	for _, cfg := range devices.All() {
		all = append(all, cfg.Name)
		if device == "" || cfg.Name == device {
			devs = append(devs, cfg.Name)
		}
	}
	if len(devs) == 0 {
		fatalIf(fmt.Errorf("unknown device %q (have %s)", device, strings.Join(all, ", ")))
	}
	apps := catalog.Names()
	if app != "" {
		apps = []string{app}
	}
	models := comm.AllModels()
	if model != "" {
		m, err := comm.ByName(model)
		fatalIf(err)
		models = []comm.Model{m}
	}

	combos, bad := 0, 0
	for _, devName := range devs {
		for _, appName := range apps {
			w, err := catalog.ByName(appName, catalog.Full)
			fatalIf(err)
			for _, m := range models {
				s, err := devices.NewSoC(devName)
				fatalIf(err)
				combos++

				rep, err := comm.Verify(s, w, m)
				fatalIf(err)
				if trace {
					trep, terr := comm.TraceCheck(s, w, m, 0)
					fatalIf(terr)
					rep.Merge(trep)
				}

				status := "ok"
				if !rep.OK() {
					status = fmt.Sprintf("%d HAZARD(S)", len(rep.Findings))
					bad++
				}
				fmt.Printf("%-18s %-8s %-9s %6d checks  %s\n",
					devName, appName, m.Name(), rep.Checked, status)
				if verbose || !rep.OK() {
					for _, f := range rep.Findings {
						fmt.Printf("    %s\n", f)
					}
				}
			}
		}
	}
	if bad > 0 {
		fmt.Fprintf(os.Stderr, "hazardcheck: %d of %d combinations refuted\n", bad, combos)
		return 1
	}
	fmt.Printf("hazardcheck: all %d combinations verified\n", combos)
	return 0
}

func fatalIf(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "hazardcheck:", err)
		os.Exit(1)
	}
}
