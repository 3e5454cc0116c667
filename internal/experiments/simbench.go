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
	"earthplus/internal/sim"
)

// BENCH_sim.json, next to the codec's BENCH_codec.json, tracks the
// sharded engine's multi-core scaling across PRs, and only that: the
// sweeps are their own catalog jobs, and per-stage on-board costs are the
// repo benchmark's traced per-layer metrics.

// SimBenchRun is one measured worker count.
type SimBenchRun struct {
	Workers int     `json:"workers"`
	Seconds float64 `json:"seconds"`
	// SpeedupVsSerial is serial_seconds / seconds.
	SpeedupVsSerial float64 `json:"speedup_vs_serial"`
}

// SimBenchResult is the engine's scaling snapshot: the measured
// worker-count sweep plus the flag that says whether its speedup numbers
// mean anything on this host.
type SimBenchResult struct {
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
	path          string
}

// ID implements Result.
func (r *SimBenchResult) ID() string { return "Sim engine scaling snapshot" }

// Render implements Result.
func (r *SimBenchResult) Render(w io.Writer) error {
	fmt.Fprintf(w, "workload: %d locations x %d satellites x %d days = %d captures, GOMAXPROCS=%d\n",
		r.Locations, r.Satellites, r.Days, r.CapturesPerRun, r.GOMAXPROCS)
	fmt.Fprintf(w, "serial bootstrap phase (excluded from runs): %.2fs\n", r.BootstrapSeconds)
	fmt.Fprintf(w, "%-10s %10s %10s\n", "workers", "seconds", "speedup")
	for _, run := range r.Runs {
		fmt.Fprintf(w, "%-10d %10.2f %9.2fx\n", run.Workers, run.Seconds, run.SpeedupVsSerial)
	}
	fmt.Fprintf(w, "scaling valid: %v (speedup figures are host artifacts below 2 cores)\n", r.ScalingValid)
	fmt.Fprintf(w, "traces identical across worker counts: %v\n", r.Deterministic)
	if r.path != "" {
		fmt.Fprintf(w, "snapshot written to %s\n", r.path)
	}
	return nil
}

// simBenchDays is the measured evaluation window.
const simBenchDays = 4

// SimBench measures a whole-constellation Earth+ run at worker counts 1,
// 2, 4 and GOMAXPROCS, checks that every run writes the serial run's
// trace bytes and, when outPath is non-empty, writes the JSON snapshot
// there (BENCH_sim.json). ScalingValid is false when the host has fewer
// than two scheduler cores — the sweep still runs (the determinism bit,
// which compares whole traces, is as meaningful as ever) but the speedup
// figures are host artifacts.
func SimBench(outPath string) (*SimBenchResult, error) {
	cfg := richConfig(QuickScale())
	const satellites = 8
	res := &SimBenchResult{
		GoVersion:    runtime.Version(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		ScalingValid: runtime.GOMAXPROCS(0) >= 2,
		Satellites:   satellites,
		Locations:    len(cfg.Locations),
		Days:         simBenchDays,
		path:         outPath,
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
