// Package experiments regenerates every table and figure of the paper's
// evaluation (§6) from the simulation substrate. Each ExpNN function runs
// the workload described in DESIGN.md's per-experiment index and returns a
// result that renders the same rows/series the paper reports.
package experiments

import (
	"fmt"
	"io"
	"sync"

	"earthplus/internal/baseline"
	"earthplus/internal/core"
	"earthplus/internal/link"
	"earthplus/internal/orbit"
	"earthplus/internal/registry"
	"earthplus/internal/scene"
	"earthplus/internal/sim"
)

// Scale sizes an experiment run.
type Scale struct {
	// Size picks the scene resolution preset.
	Size scene.Size
	// ProfileStart/ProfileDays is the year-1 window used to calibrate θ.
	ProfileStart, ProfileDays int
	// EvalStart/EvalDays is the evaluation window (year 2 in the paper).
	EvalStart, EvalDays int
	// MaxLocations caps the rich-content location count (0 = all 11).
	MaxLocations int
	// GammaSweep lists the γ values for rate-distortion trade-off sweeps.
	GammaSweep []float64
	// RefAgeSweep lists reference ages (days) for Fig 4.
	RefAgeSweep []int
	// DownsampleSweep lists per-axis factors for Fig 8.
	DownsampleSweep []int
	// FleetSweep lists constellation sizes for Fig 19.
	FleetSweep []int
	// UplinkDivisors sweep the uplink budget for Fig 18 (budget =
	// rawRefBytesPerDay / divisor).
	UplinkDivisors []float64
	// Spec is the base configuration of every Earth+ run of Figs 11-19
	// (each run sets its own γ and θ on top) and supplies the main
	// series' "evict_policy" of the storage sweep. The zero value keeps
	// Earth+'s defaults. The loss and constellation sweeps, the
	// ablations and the baselines set their own knobs and ignore it.
	// cmd/earthplus-bench fills it from its system flags.
	Spec registry.Spec
}

// Tiny returns the smallest meaningful scale — used by unit tests.
func Tiny() Scale {
	return Scale{
		Size:            scene.Quick,
		ProfileStart:    0,
		ProfileDays:     25,
		EvalStart:       40,
		EvalDays:        25,
		MaxLocations:    2,
		GammaSweep:      []float64{0.25, 1.0, 2.0},
		RefAgeSweep:     []int{5, 20, 50},
		DownsampleSweep: []int{1, 4, 16},
		FleetSweep:      []int{1, 4, 16},
		UplinkDivisors:  []float64{20000, 25},
	}
}

// QuickScale is the default for cmd/earthplus-bench and the root benches.
func QuickScale() Scale {
	return Scale{
		Size:            scene.Quick,
		ProfileStart:    0,
		ProfileDays:     60,
		EvalStart:       370,
		EvalDays:        90,
		MaxLocations:    0,
		GammaSweep:      []float64{0.125, 0.25, 0.5, 1.0, 2.0},
		RefAgeSweep:     []int{5, 10, 20, 30, 40, 50, 60},
		DownsampleSweep: []int{1, 2, 4, 8, 16},
		FleetSweep:      []int{1, 2, 4, 8, 16},
		UplinkDivisors:  []float64{20000, 5000, 1000, 100, 10},
	}
}

// FullScale runs closer to paper scale (a full evaluation year at the
// larger scene size).
func FullScale() Scale {
	s := QuickScale()
	s.Size = scene.Full
	s.ProfileDays = 120
	s.EvalDays = 365
	return s
}

// Result is one regenerated table or figure.
type Result interface {
	// ID returns the paper artefact identifier, e.g. "Figure 11a".
	ID() string
	// Render writes the regenerated rows/series as text.
	Render(w io.Writer) error
}

// richConfig builds the rich-content dataset config under a scale.
func richConfig(sc Scale) scene.Config {
	cfg := scene.RichContent(sc.Size)
	if sc.MaxLocations > 0 && sc.MaxLocations < len(cfg.Locations) {
		cfg.Locations = cfg.Locations[:sc.MaxLocations]
	}
	return cfg
}

// richOrbit is the Sentinel-2-like constellation: 2 satellites (Table 2)
// with a 10-day single-satellite revisit period.
func richOrbit() orbit.Constellation {
	return orbit.Constellation{Satellites: 2, RevisitDays: 10}
}

// planetOrbit returns the Doves-like constellation with the given fleet
// size (48 in Table 2) and a 12-day single-satellite revisit.
func planetOrbit(satellites int) orbit.Constellation {
	return orbit.Constellation{Satellites: satellites, RevisitDays: 12}
}

// DenseOrbit is the dense-revisit constellation the stress sweeps fly: a
// 2-day single-satellite revisit, so compact scales still generate enough
// traffic per simulated day — enough channel frames for sub-percent loss
// rates to resolve into fault events (the loss sweep), enough contending
// uplink demand for station contention to bite (the constellation sweep).
func DenseOrbit(satellites int) orbit.Constellation {
	return orbit.Constellation{Satellites: satellites, RevisitDays: 2}
}

// dovesDownlink is the Table 1 downlink contact model.
func dovesDownlink() link.Budget {
	spec := orbit.DovesSpec()
	return link.Budget{Bps: spec.DownlinkBps, SecondsPerContact: spec.ContactSeconds, ContactsPerDay: spec.ContactsPerDay}
}

// rawRefBytesPerDay is the raw (2 bytes/sample, full resolution) size of
// one reference set for every modeled location — the uncompressed daily
// reference demand that Fig 17 and Fig 18 scale the uplink against.
func rawRefBytesPerDay(cfg scene.Config) int64 {
	return int64(cfg.Width) * int64(cfg.Height) * int64(len(cfg.Bands)) * 2 * int64(len(cfg.Locations))
}

// defaultUplinkDivisor scales the Doves uplink to the modeled location
// count: the budget is rawRefBytesPerDay/defaultUplinkDivisor, i.e. the
// uplink can carry raw references only if they are compressed at least
// this much — mirroring the paper's "compression ratio required for
// current uplink capacity" line in Fig 17. At 50x the budget is binding
// (raw or merely-downsampled references cannot fit) yet sufficient for
// Earth+'s delta-encoded updates to keep references fully fresh.
const defaultUplinkDivisor = 50

// SimWorkers is the package default for Env.Parallelism in every
// experiment environment: how many locations each simulated day is
// sharded across (the codec.Parallelism convention — <= 0 means
// GOMAXPROCS, 1 forces the serial path). Results are identical at any
// setting; cmd/earthplus-bench exposes it as -simworkers.
var SimWorkers int

// envFor assembles a simulation environment.
func envFor(cfg scene.Config, cons orbit.Constellation, uplinkDivisor float64) *sim.Env {
	env := &sim.Env{
		Scene:       scene.New(cfg),
		Orbit:       cons,
		Downlink:    dovesDownlink(),
		Parallelism: SimWorkers,
	}
	if uplinkDivisor > 0 {
		env.UplinkBytesPerDay = int64(float64(rawRefBytesPerDay(cfg)) / uplinkDivisor)
	}
	return env
}

// profiledTheta calibrates Earth+'s change threshold θ on the profiling
// window (the paper profiles last year's data on one location, §5).
func profiledTheta(sc Scale, cfg scene.Config, downsample int) float64 {
	return ProfileThetaOnScene(scene.New(cfg), 0, sc.ProfileStart, sc.ProfileStart+sc.ProfileDays, downsample, 0.02, core.DefaultConfig().Theta)
}

// earthPlus builds an Earth+ system through the system registry from the
// scale's base spec with the profiled θ and a γ.
func earthPlus(sc Scale, env *sim.Env, theta, gamma float64) (sim.System, error) {
	spec := sc.Spec
	spec.GammaBPP, spec.Theta = gamma, theta
	return registry.New(core.SystemName, env, spec)
}

// runSystemStream runs one system over the scale's evaluation window,
// streaming each record into emit (which may be nil) instead of retaining
// the record set — whole-constellation sweeps hold at most one day of
// records in memory.
func runSystemStream(sc Scale, env *sim.Env, sys sim.System, emit func(*sim.Record)) (*sim.Result, error) {
	return sim.RunStream(env, sys, sc.EvalStart-30, sc.EvalStart, sc.EvalStart+sc.EvalDays, emit)
}

// summarizeSystem runs one system and folds its records straight into a
// Summary without retaining them.
func summarizeSystem(sc Scale, env *sim.Env, sys sim.System) (sim.Summary, error) {
	acc := sim.NewAccumulator()
	res, err := runSystemStream(sc, env, sys, acc.Add)
	if err != nil {
		return sim.Summary{}, err
	}
	return acc.Summary(res, dovesDownlink()), nil
}

// threeSystemsStream builds Earth+, Kodan and SatRoI at one γ for an
// env-factory and runs them concurrently — each system gets a fresh
// environment (its own scene instance), so the runs are fully
// independent. Records are streamed into the per-system collector that
// mkEmit returns (called once per system before its run starts; the
// returned emit runs on that system's goroutine, so collectors for
// different systems must not share state). The returned Results carry the
// run aggregates with Records nil.
func threeSystemsStream(sc Scale, mkEnv func() *sim.Env, theta, gamma float64, mkEmit func(name string) func(*sim.Record)) (map[string]*sim.Result, error) {
	builders := []struct {
		name string
		mk   func(env *sim.Env) (sim.System, error)
	}{
		{"Earth+", func(env *sim.Env) (sim.System, error) { return earthPlus(sc, env, theta, gamma) }},
		{"Kodan", func(env *sim.Env) (sim.System, error) {
			return registry.New(baseline.KodanName, env, registry.Spec{GammaBPP: gamma})
		}},
		{"SatRoI", func(env *sim.Env) (sim.System, error) {
			return registry.New(baseline.SatRoIName, env, registry.Spec{GammaBPP: gamma})
		}},
	}
	results := make([]*sim.Result, len(builders))
	errs := make([]error, len(builders))
	var wg sync.WaitGroup
	for i, b := range builders {
		var emit func(*sim.Record)
		if mkEmit != nil {
			emit = mkEmit(b.name)
		}
		wg.Add(1)
		go func(i int, name string, mk func(env *sim.Env) (sim.System, error), emit func(*sim.Record)) {
			defer wg.Done()
			env := mkEnv()
			sys, err := mk(env)
			if err != nil {
				errs[i] = fmt.Errorf("%s: %w", name, err)
				return
			}
			res, err := runSystemStream(sc, env, sys, emit)
			if err != nil {
				errs[i] = fmt.Errorf("%s: %w", name, err)
				return
			}
			results[i] = res
		}(i, b.name, b.mk, emit)
	}
	wg.Wait()
	out := make(map[string]*sim.Result, len(builders))
	for i, b := range builders {
		if errs[i] != nil {
			return nil, errs[i]
		}
		out[b.name] = results[i]
	}
	return out, nil
}
