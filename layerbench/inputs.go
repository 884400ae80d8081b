package main

import (
	"fmt"
	"math/rand"

	"igpucomm/internal/advisord"
	"igpucomm/internal/apps/catalog"
	"igpucomm/internal/comm"
	"igpucomm/internal/devices"
	"igpucomm/internal/engine"
	"igpucomm/internal/microbench"
	"igpucomm/internal/soc"
	"igpucomm/internal/units"
)

// Every input the program sees is made here from the seed; the workloads
// only consume these streams.

// adviseModels are the current models a question may name. sc-async and
// hybrid are left out on purpose: framework.Advise rejects them only after
// profiling and the rejection is never memoized, so each such question is
// simulated waste, not service traffic (see README.md).
var adviseModels = []string{"sc", "um", "zc"}

// variant is one device bring-up: a perturbed board and the model each
// catalog app currently uses on it.
type variant struct {
	Config  soc.Config
	Current []string // per catalog.Names() entry
}

// variantStream draws board variants: a base board with its GPU and CPU LLC
// sizes scaled by 1/2, 1 or 2 and its pinned-path and copy bandwidths scaled
// by a factor in [0.5, 1.5). Each variant is valid and has a
// characterization cache key no earlier variant of the stream had, so every
// bring-up misses the engine's memo.
type variantStream struct {
	rng    *rand.Rand
	params microbench.Params
	apps   int
	seen   map[string]bool
	n      int
}

func newVariantStream(seed int64, p microbench.Params) *variantStream {
	return &variantStream{
		rng:    rand.New(rand.NewSource(seed)),
		params: p,
		apps:   len(catalog.Names()),
		seen:   make(map[string]bool),
	}
}

var (
	variantBases = []func() soc.Config{devices.Nano, devices.TX2, devices.Xavier, devices.APU}
	llcScales    = []float64{0.5, 1, 2}
)

func (vs *variantStream) next() (variant, error) {
	for {
		cfg := variantBases[vs.rng.Intn(len(variantBases))]()
		cfg.GPU.LLC.Size = int64(float64(cfg.GPU.LLC.Size) * llcScales[vs.rng.Intn(len(llcScales))])
		cfg.CPU.LLC.Size = int64(float64(cfg.CPU.LLC.Size) * llcScales[vs.rng.Intn(len(llcScales))])
		pinned := units.BytesPerSecond(0.5 + vs.rng.Float64())
		if cfg.IOCoherent {
			cfg.IOBandwidth *= pinned
		} else {
			cfg.PinnedBandwidth *= pinned
		}
		cfg.CopyBandwidth *= units.BytesPerSecond(0.5 + vs.rng.Float64())
		cfg.Name = fmt.Sprintf("%s~v%d", cfg.Name, vs.n)
		cur := make([]string, vs.apps)
		for i := range cur {
			cur[i] = adviseModels[vs.rng.Intn(len(adviseModels))]
		}
		if err := cfg.Validate(); err != nil {
			return variant{}, fmt.Errorf("variant %d: %w", vs.n, err)
		}
		key, err := engine.CacheKey(cfg, vs.params)
		if err != nil {
			return variant{}, err
		}
		if vs.seen[key] {
			continue
		}
		vs.seen[key] = true
		vs.n++
		return variant{Config: cfg, Current: cur}, nil
	}
}

// serveDevices are the boards the service answers for: the three paper
// boards plus the extrapolated APU.
var serveDevices = []string{devices.NanoName, devices.TX2Name, devices.XavierName, devices.APUName}

// questions lists the 36 valid advisory questions: device x app x current.
func questions() []advisord.AdviseRequest {
	var qs []advisord.AdviseRequest
	for _, d := range serveDevices {
		for _, app := range catalog.Names() {
			for _, m := range adviseModels {
				qs = append(qs, advisord.AdviseRequest{Device: d, App: app, Current: m})
			}
		}
	}
	return qs
}

// schedule draws serve batches: 1 to 3 questions each, picked Zipf(s=1.1)
// over a seeded permutation of the questions, so a few questions are hot
// and the rest form a long tail.
//
// The permutation deals the Zipf ranks to the apps in turn (rank r goes to
// serveAppOrder[r mod 3]), so every seed gives each app the same share of
// the traffic; the seed chooses which device and current model hold each
// of an app's ranks, and draws them afresh every scheduleEpoch batches. An
// orbslam answer costs over 30 times a lanedet or shwfs answer (the service
// rebuilds the workload per request), and which devices are hot decides how
// many shards a batch is split across; a seed free to fix either for a
// whole run would set the latency more than the service does. With the
// ranks dealt over all 36 questions instead, about half the batches carry
// an orbslam question, so the median batch sits at the boundary of a
// two-humped distribution: in a ten-seed trial on a 2-vCPU host the
// closed-loop p50 spread 1.41 (0.65 to 3.79 ms) and the rate 0.24. Orbslam holds the hottest
// ranks: about two batches in three carry an orbslam question, so the
// median batch is a slow one and a fix to the rebuild shows in serve p50.
type schedule struct {
	rng   *rand.Rand
	zipf  *rand.Zipf
	byApp [][]int // question indices per serveAppOrder entry
	perm  []int   // Zipf rank -> question index
	drawn int
}

var serveAppOrder = []string{"orbslam", "shwfs", "lanedet"}

// scheduleEpoch is how many batches one permutation serves.
const scheduleEpoch = 200

func newSchedule(seed int64, qs []advisord.AdviseRequest) *schedule {
	rng := rand.New(rand.NewSource(seed))
	s := &schedule{
		rng:   rng,
		zipf:  rand.NewZipf(rng, 1.1, 1, uint64(len(qs)-1)),
		byApp: make([][]int, len(serveAppOrder)),
		perm:  make([]int, len(qs)),
	}
	for i, q := range qs {
		for a, app := range serveAppOrder {
			if q.App == app {
				s.byApp[a] = append(s.byApp[a], i)
			}
		}
	}
	s.permute()
	return s
}

// permute re-deals the Zipf ranks: each app keeps its ranks, and the seed
// shuffles which of the app's questions holds each.
func (s *schedule) permute() {
	for _, idx := range s.byApp {
		s.rng.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
	}
	n := len(s.byApp)
	for r := range s.perm {
		s.perm[r] = s.byApp[r%n][r/n]
	}
}

// next returns the question indices of the next batch.
func (s *schedule) next() []int {
	if s.drawn > 0 && s.drawn%scheduleEpoch == 0 {
		s.permute()
	}
	s.drawn++
	b := make([]int, 1+s.rng.Intn(3))
	for i := range b {
		b[i] = s.perm[s.zipf.Uint64()]
	}
	return b
}

// combo is one (device, app) point of the sweep; each Explore covers all
// five communication models for it.
type combo struct {
	Config   soc.Config
	Workload comm.Workload
}

// sweepCombos builds the 3 boards x 3 apps at the given scale, in a seeded
// order.
func sweepCombos(seed int64, sc catalog.Scale) ([]combo, error) {
	var cs []combo
	for _, cfg := range devices.All() {
		for _, app := range catalog.Names() {
			w, err := catalog.ByName(app, sc)
			if err != nil {
				return nil, err
			}
			cs = append(cs, combo{Config: cfg, Workload: w})
		}
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(cs), func(i, j int) { cs[i], cs[j] = cs[j], cs[i] })
	return cs, nil
}

// appWorkloads builds every catalog app at the given scale, in
// catalog.Names() order.
func appWorkloads(sc catalog.Scale) ([]comm.Workload, error) {
	names := catalog.Names()
	ws := make([]comm.Workload, len(names))
	for i, n := range names {
		w, err := catalog.ByName(n, sc)
		if err != nil {
			return nil, err
		}
		ws[i] = w
	}
	return ws, nil
}
