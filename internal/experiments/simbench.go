package experiments

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"earthplus/internal/codec"
	"earthplus/internal/core"
	"earthplus/internal/orbit"
	"earthplus/internal/registry"
	"earthplus/internal/scene"
	"earthplus/internal/sim"
)

// SimBench snapshots whole-constellation simulation throughput so the
// perf trajectory of the sharded engine is tracked across PRs
// (BENCH_sim.json, next to the codec's BENCH_codec.json). It runs the
// same multi-location, multi-satellite Earth+ workload at several worker
// counts with the codec pinned to one thread — isolating the engine's
// location-sharding speedup from the codec's own band parallelism — and
// checks the runs write identical traces while it is at it.

// SimBenchRun is one measured worker count.
type SimBenchRun struct {
	Workers int     `json:"workers"`
	Seconds float64 `json:"seconds"`
	// SpeedupVsSerial is serial_seconds / seconds.
	SpeedupVsSerial float64 `json:"speedup_vs_serial"`
}

// SimScalingResult is the engine's multi-core scaling probe: the measured
// worker-count sweep plus the flag that says whether its speedup numbers
// mean anything on this host. It is embedded in SimBenchResult (inline
// JSON keys) and also runs standalone as `-only simscale`, which is what
// CI's bench smoke pins at GOMAXPROCS >= 4.
type SimScalingResult struct {
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	// ScalingValid is false when GOMAXPROCS < 2: with one scheduler core
	// the worker sweep cannot exhibit any speedup, so speedup_vs_serial
	// ~1.0 would read as an engine regression when it is only a host
	// artifact. Consumers must ignore the speedup figures unless this is
	// true.
	ScalingValid bool `json:"scaling_valid"`
	Satellites   int  `json:"satellites"`
	Locations    int  `json:"locations"`
	Days         int  `json:"days"`
	// CapturesPerRun is the number of (day, location, satellite) visits
	// each measured run processes.
	CapturesPerRun int `json:"captures_per_run"`
	// BootstrapSeconds is the serial-by-design bootstrap phase, measured
	// once and excluded from every run's Seconds.
	BootstrapSeconds float64       `json:"bootstrap_seconds"`
	SerialSeconds    float64       `json:"serial_seconds"`
	Runs             []SimBenchRun `json:"runs"`
	// Deterministic reports whether every run wrote the serial run's
	// trace bytes.
	Deterministic bool `json:"deterministic"`
}

// SimBenchResult is the full snapshot.
type SimBenchResult struct {
	SimScalingResult
	// Storage is the storage sweep recorded alongside the perf runs:
	// budget points and per-system compression ratios, uplink use and
	// eviction/miss counts (run at a compact scale).
	Storage *StorageSweepResult `json:"storage_sweep,omitempty"`
	// RefDecode is the decode-on-visit cost of a storage-bounded
	// ref_compression=on run (serial measurement): the frame decode count
	// plus the measured wall-clock, so the price of ref_compression
	// appears in the tracked snapshot instead of staying advisory-only.
	RefDecode *RefDecodeCost `json:"ref_decode,omitempty"`
	// Compute is the Fig-16-style per-image on-board compute budget with
	// RefDecode's wall-clock charged per visit next to the encode time.
	Compute *OnboardComputeBudget `json:"onboard_compute,omitempty"`
	// TiledRefDecode is RefDecode with tiled_store=on, including the
	// per-tile splice savings counters.
	TiledRefDecode *RefDecodeCost `json:"tiled_ref_decode,omitempty"`
	// Loss is the link-loss robustness sweep recorded alongside the perf
	// runs (run at the same compact scale as the storage sweep).
	Loss *LossSweepResult `json:"loss_sweep,omitempty"`
	// Const is the constellation sweep recorded alongside the perf runs:
	// fleet sizes x contended ground-station counts, with per-contact
	// budgets, contention stalls, re-seed backlog and event
	// time-to-usable-image (run at a compact single-location scale).
	Const *ConstSweepResult `json:"constsweep,omitempty"`
	path  string
}

// ID implements Result.
func (r *SimScalingResult) ID() string { return "Sim engine scaling probe" }

// Render implements Result.
func (r *SimScalingResult) Render(w io.Writer) error {
	fmt.Fprintf(w, "workload: %d locations x %d satellites x %d days = %d captures, GOMAXPROCS=%d\n",
		r.Locations, r.Satellites, r.Days, r.CapturesPerRun, r.GOMAXPROCS)
	fmt.Fprintf(w, "serial bootstrap phase (excluded from runs): %.2fs\n", r.BootstrapSeconds)
	fmt.Fprintf(w, "%-10s %10s %10s\n", "workers", "seconds", "speedup")
	for _, run := range r.Runs {
		fmt.Fprintf(w, "%-10d %10.2f %9.2fx\n", run.Workers, run.Seconds, run.SpeedupVsSerial)
	}
	fmt.Fprintf(w, "scaling valid: %v (speedup figures are host artifacts below 2 cores)\n", r.ScalingValid)
	fmt.Fprintf(w, "traces identical across worker counts: %v\n", r.Deterministic)
	return nil
}

// ID implements Result.
func (r *SimBenchResult) ID() string { return "Sim engine perf snapshot" }

// Render implements Result.
func (r *SimBenchResult) Render(w io.Writer) error {
	if err := r.SimScalingResult.Render(w); err != nil {
		return err
	}
	if r.RefDecode != nil {
		fmt.Fprintf(w, "decode-on-visit cost (serial compressed run): %d decodes, %.3fs wall\n",
			r.RefDecode.Decodes, r.RefDecode.WallSeconds)
	}
	if r.Compute != nil {
		fmt.Fprintf(w, "on-board compute budget per image (Fig 16 style): cloud %.1fms + change %.1fms + encode %.1fms + decode-on-visit %.2fms = %.1fms (decode %.1f%%)\n",
			r.Compute.CloudMs, r.Compute.ChangeMs, r.Compute.EncodeMs,
			r.Compute.DecodeMsPerVisit, r.Compute.TotalMs, r.Compute.DecodeSharePct)
	}
	if r.TiledRefDecode != nil && r.TiledRefDecode.SpliceTilesTotal > 0 {
		fmt.Fprintf(w, "tiled ground splice: re-encoded %d of %d codec tiles (%.1f%% saved)\n",
			r.TiledRefDecode.SpliceTilesReencoded, r.TiledRefDecode.SpliceTilesTotal,
			100*(1-float64(r.TiledRefDecode.SpliceTilesReencoded)/float64(r.TiledRefDecode.SpliceTilesTotal)))
	}
	if r.Storage != nil {
		if err := r.Storage.Render(w); err != nil {
			return err
		}
	}
	if r.Loss != nil {
		if err := r.Loss.Render(w); err != nil {
			return err
		}
	}
	if r.Const != nil {
		if err := r.Const.Render(w); err != nil {
			return err
		}
	}
	if r.path != "" {
		fmt.Fprintf(w, "snapshot written to %s\n", r.path)
	}
	return nil
}

// RefDecodeCost is the decode-on-visit price of a compressed reference
// store: how many stored frames were decoded (one per reference visit)
// and the wall-clock the decodes took.
type RefDecodeCost struct {
	Decodes     int64   `json:"decodes"`
	WallSeconds float64 `json:"wall_seconds"`
	// SpliceTilesReencoded/SpliceTilesTotal record the tiled profile's
	// per-tile splice savings: codec tiles the ground actually re-encoded
	// for delta updates versus the tiles whole-mirror re-encodes would
	// have touched. Zero on the monolithic profile.
	SpliceTilesReencoded int64 `json:"splice_tiles_reencoded,omitempty"`
	SpliceTilesTotal     int64 `json:"splice_tiles_total,omitempty"`
}

// OnboardComputeBudget is the Fig-16-style per-image on-board runtime
// with decode-on-visit charged as its own line: the compressed store is
// not free, so the snapshot records the cloud + change + encode budget
// of one capture NEXT TO the measured decode cost per reference visit,
// instead of leaving DecodeWall advisory-only.
type OnboardComputeBudget struct {
	// CloudMs/ChangeMs/EncodeMs are Earth+'s Fig 16 per-image component
	// runtimes on this machine (cheap cloud detector, change detection at
	// detection resolution, shared γ encode).
	CloudMs  float64 `json:"cloud_ms"`
	ChangeMs float64 `json:"change_ms"`
	EncodeMs float64 `json:"encode_ms"`
	// DecodeMsPerVisit spreads the compressed run's decode-on-visit wall
	// over its reference visits, each of which decodes once.
	DecodeMsPerVisit float64 `json:"decode_ms_per_visit"`
	// TotalMs is the per-image budget including the decode charge, and
	// DecodeSharePct decode-on-visit's share of it.
	TotalMs        float64 `json:"total_ms"`
	DecodeSharePct float64 `json:"decode_share_pct"`
}

// simBenchDays is the measured evaluation window.
const simBenchDays = 4

// SimScaling measures a whole-constellation Earth+ run at worker counts
// 1, 2, 4 and GOMAXPROCS: the engine's multi-core scaling probe, with the
// codec pinned to one thread. ScalingValid is false when the host has
// fewer than two scheduler cores — the sweep still runs (the determinism
// bit, which compares whole traces, is as meaningful as ever) but the
// speedup figures are host artifacts.
func SimScaling() (*SimScalingResult, error) {
	cfg := richConfig(QuickScale())
	const satellites = 8
	res := &SimScalingResult{
		GoVersion:    runtime.Version(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		ScalingValid: runtime.GOMAXPROCS(0) >= 2,
		Satellites:   satellites,
		Locations:    len(cfg.Locations),
		Days:         simBenchDays,
	}

	mkRun := func(workers int) (*sim.Env, sim.System, error) {
		env := envFor(cfg, simBenchOrbit(satellites), defaultUplinkDivisor)
		env.Parallelism = workers
		// Pin the codec to one thread so the measurement isolates the
		// engine's location sharding from band-level parallelism.
		spec := registry.Spec{Codec: codec.Options{Parallelism: 1}}
		sys, err := registry.New(core.SystemName, env, spec)
		return env, sys, err
	}

	// The bootstrap phase is serial by design (it runs once, before any
	// day), so it is measured separately — with a zero-day window — and
	// subtracted from each timed run; otherwise its fixed cost would
	// deflate every speedup figure.
	bootSec := 0.0
	{
		env, sys, err := mkRun(1)
		if err != nil {
			return nil, fmt.Errorf("simbench: bootstrap run: %w", err)
		}
		t0 := time.Now()
		if _, err := sim.RunStream(env, sys, 10, 40, 40, nil); err != nil {
			return nil, fmt.Errorf("simbench: bootstrap run: %w", err)
		}
		bootSec = time.Since(t0).Seconds()
	}
	res.BootstrapSeconds = bootSec

	measure := func(workers int) (*sim.Result, float64, error) {
		env, sys, err := mkRun(workers)
		if err != nil {
			return nil, 0, err
		}
		t0 := time.Now()
		run, err := sim.Run(env, sys, 10, 40, 40+simBenchDays)
		if err != nil {
			return nil, 0, err
		}
		sec := time.Since(t0).Seconds() - bootSec
		if sec < 0 {
			sec = 0
		}
		return run, sec, nil
	}

	serial, serialSec, err := measure(1)
	if err != nil {
		return nil, fmt.Errorf("simbench: serial run: %w", err)
	}
	serialTrace, err := sim.TraceBytes(serial)
	if err != nil {
		return nil, fmt.Errorf("simbench: serial run: %w", err)
	}
	res.SerialSeconds = serialSec
	res.CapturesPerRun = len(serial.Records)
	res.Runs = append(res.Runs, SimBenchRun{Workers: 1, Seconds: serialSec, SpeedupVsSerial: 1})
	res.Deterministic = true

	workerSweep := []int{2, 4}
	if p := runtime.GOMAXPROCS(0); p > 4 {
		workerSweep = append(workerSweep, p)
	}
	for _, wkr := range workerSweep {
		run, sec, err := measure(wkr)
		if err != nil {
			return nil, fmt.Errorf("simbench: %d workers: %w", wkr, err)
		}
		trace, err := sim.TraceBytes(run)
		if err != nil {
			return nil, fmt.Errorf("simbench: %d workers: %w", wkr, err)
		}
		if !bytes.Equal(trace, serialTrace) {
			res.Deterministic = false
		}
		res.Runs = append(res.Runs, SimBenchRun{Workers: wkr, Seconds: sec, SpeedupVsSerial: serialSec / sec})
	}
	return res, nil
}

// SimBench runs the scaling probe plus the storage, link-loss and
// constellation sweeps and, when outPath is non-empty, writes the JSON
// snapshot there (BENCH_sim.json).
func SimBench(outPath string) (*SimBenchResult, error) {
	scaling, err := SimScaling()
	if err != nil {
		return nil, err
	}
	res := &SimBenchResult{SimScalingResult: *scaling, path: outPath}

	// Storage snapshot: the budget sweep plus the decode-on-visit cost of
	// serial compressed runs on the monolithic and tiled profiles, all at
	// a compact scale so the snapshot stays cheap to regenerate.
	storageSc := storageSnapshotScale()
	sweep, err := StorageSweep(storageSc)
	if err != nil {
		return nil, fmt.Errorf("simbench: storage sweep: %w", err)
	}
	res.Storage = sweep
	if res.RefDecode, err = refDecodeCost(storageSc, false); err != nil {
		return nil, fmt.Errorf("simbench: compressed-refs decode cost: %w", err)
	}
	if res.TiledRefDecode, err = refDecodeCost(storageSc, true); err != nil {
		return nil, fmt.Errorf("simbench: tiled-store decode cost: %w", err)
	}

	// Charge decode-on-visit into the Fig-16-style per-image compute
	// budget: component runtimes from the Fig 16 measurement, the decode
	// line from the compressed run above.
	if fig16, err := Fig16(storageSc); err == nil && res.RefDecode != nil {
		earthIdx := len(fig16.Systems) - 1 // Earth+ is the last system
		b := &OnboardComputeBudget{
			CloudMs:  fig16.CloudSec[earthIdx] * 1e3,
			ChangeMs: fig16.ChangeSec[earthIdx] * 1e3,
			EncodeMs: fig16.EncodeSec[earthIdx] * 1e3,
		}
		if res.RefDecode.Decodes > 0 {
			b.DecodeMsPerVisit = res.RefDecode.WallSeconds * 1e3 / float64(res.RefDecode.Decodes)
		}
		b.TotalMs = b.CloudMs + b.ChangeMs + b.EncodeMs + b.DecodeMsPerVisit
		if b.TotalMs > 0 {
			b.DecodeSharePct = 100 * b.DecodeMsPerVisit / b.TotalMs
		}
		res.Compute = b
	} else if err != nil {
		return nil, fmt.Errorf("simbench: fig16 compute budget: %w", err)
	}

	// Link-loss snapshot: the loss sweep at the same compact scale.
	lossSweep, err := LossSweep(storageSc)
	if err != nil {
		return nil, fmt.Errorf("simbench: loss sweep: %w", err)
	}
	res.Loss = lossSweep

	// Constellation snapshot: the fleet x station sweep at a compact
	// single-location scale.
	constSweep, err := ConstellationSweep(constSnapshotScale())
	if err != nil {
		return nil, fmt.Errorf("simbench: constellation sweep: %w", err)
	}
	res.Const = constSweep

	if outPath != "" {
		data, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			return nil, err
		}
		if err := os.WriteFile(outPath, append(data, '\n'), 0o644); err != nil {
			return nil, fmt.Errorf("simbench: writing snapshot: %w", err)
		}
	}
	return res, nil
}

// simBenchOrbit visits every location with ~2 satellites per day: a dense
// whole-constellation day without an unrealistic all-sats-every-day
// schedule.
func simBenchOrbit(satellites int) orbit.Constellation {
	return orbit.Constellation{Satellites: satellites, RevisitDays: 4}
}

// storageSnapshotScale sizes the storage sweep recorded in BENCH_sim.json:
// a few locations and a short evaluation window — enough churn for
// evictions and miss-fallbacks at the small budget points, cheap enough to
// regenerate with every snapshot.
func storageSnapshotScale() Scale {
	return Scale{
		Size:         scene.Quick,
		ProfileStart: 0,
		ProfileDays:  25,
		EvalStart:    40,
		EvalDays:     20,
		MaxLocations: 3,
	}
}
