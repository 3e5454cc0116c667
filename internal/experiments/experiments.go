// Package experiments regenerates every table and figure of the paper's
// evaluation (§6) from the simulation substrate. Each FigNN and TableN
// function regenerates one paper artefact; the sweeps (StorageSweep,
// LossSweep, ConstellationSweep), the ablations and the perf snapshots
// (CodecBench, SimBench) add companion measurements. Each
// returns a Result that renders its rows or series, and its doc comment
// describes its workload. Catalog lists them all.
package experiments

import (
	"fmt"
	"io"

	"earthplus/internal/baseline"
	"earthplus/internal/core"
	"earthplus/internal/link"
	"earthplus/internal/orbit"
	"earthplus/internal/par"
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
// GOMAXPROCS, 1 means one worker). Results are identical at any setting;
// cmd/earthplus-bench exposes it as -simworkers.
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

// earthSpec is the scale's base Earth+ spec at the profiled θ and a γ.
func earthSpec(sc Scale, theta, gamma float64) registry.Spec {
	spec := sc.Spec
	spec.GammaBPP, spec.Theta = gamma, theta
	return spec
}

// measured is one system's run over the evaluation window: the system
// (for its counters), the run's aggregates and its summary.
type measured struct {
	sys sim.System
	res *sim.Result
	sum sim.Summary
}

// measure builds the named system from spec on env and runs it over the
// scale's evaluation window, bootstrapping from 30 days before it. Every
// record is folded into the summary and handed to emit, which may be nil;
// none is retained, so whole-constellation sweeps hold at most one day of
// records in memory.
func measure(sc Scale, env *sim.Env, name string, spec registry.Spec, emit func(*sim.Record)) (measured, error) {
	sys, err := registry.New(name, env, spec)
	if err != nil {
		return measured{}, err
	}
	acc := sim.NewAccumulator()
	res, err := sim.RunStream(env, sys, sc.EvalStart-30, sc.EvalStart, sc.EvalStart+sc.EvalDays, func(r *sim.Record) {
		acc.Add(r)
		if emit != nil {
			emit(r)
		}
	})
	if err != nil {
		return measured{}, err
	}
	return measured{sys: sys, res: res, sum: acc.Summary(res, dovesDownlink())}, nil
}

// threeSystems measures Earth+, Kodan and SatRoI at one γ concurrently,
// keyed by system name. Each system gets a fresh environment from mkEnv
// (its own scene instance), so the runs are fully independent. mkEmit,
// when non-nil, is called once per system, in that order, before any run
// starts; the emit it returns receives the system's records on the
// system's own goroutine, so collectors for different systems must not
// share state.
func threeSystems(sc Scale, mkEnv func() *sim.Env, theta, gamma float64, mkEmit func(name string) func(*sim.Record)) (map[string]measured, error) {
	systems := []struct {
		name, registered string
		spec             registry.Spec
	}{
		{"Earth+", core.SystemName, earthSpec(sc, theta, gamma)},
		{"Kodan", baseline.KodanName, registry.Spec{GammaBPP: gamma}},
		{"SatRoI", baseline.SatRoIName, registry.Spec{GammaBPP: gamma}},
	}
	emits := make([]func(*sim.Record), len(systems))
	if mkEmit != nil {
		for i, s := range systems {
			emits[i] = mkEmit(s.name)
		}
	}
	runs := make([]measured, len(systems))
	errs := make([]error, len(systems))
	par.For(len(systems), len(systems), func(i int) {
		runs[i], errs[i] = measure(sc, mkEnv(), systems[i].registered, systems[i].spec, emits[i])
	})
	out := make(map[string]measured, len(systems))
	for i, s := range systems {
		if errs[i] != nil {
			return nil, fmt.Errorf("%s: %w", s.name, errs[i])
		}
		out[s.name] = runs[i]
	}
	return out, nil
}

// downlinkRatio is raw captured bytes over downlinked bytes across a
// run's non-dropped captures: the compression ratio the downlink sees.
func downlinkRatio(cfg scene.Config, sum sim.Summary) float64 {
	if sum.TotalDownBytes <= 0 {
		return 0
	}
	raw := int64(cfg.Width) * int64(cfg.Height) * int64(len(cfg.Bands)) * 2
	return float64(int64(sum.Captures-sum.Dropped)*raw) / float64(sum.TotalDownBytes)
}
