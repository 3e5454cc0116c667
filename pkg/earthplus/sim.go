package earthplus

import (
	"io"

	"earthplus/internal/link"
	"earthplus/internal/orbit"
	"earthplus/internal/sim"
)

// Env is the shared simulation environment: the scene, the constellation,
// the downlink contact model and the per-satellite uplink budget.
type Env = sim.Env

// System is one on-board compression scheme under test; NewSystem builds
// the registered implementations.
type System = sim.System

// Outcome is what a System reports for one processed capture.
type Outcome = sim.Outcome

// Record is one capture's evaluated outcome.
type Record = sim.Record

// Result aggregates one simulation run.
type Result = sim.Result

// Summary condenses a run into the aggregates the experiments report.
type Summary = sim.Summary

// Accumulator folds Records into a Summary one at a time, so streaming
// runs aggregate without retaining the record set.
type Accumulator = sim.Accumulator

// Constellation is a fleet of identical, evenly phased satellites.
type Constellation = orbit.Constellation

// LinkBudget models a downlink's contact capacity.
type LinkBudget = link.Budget

// NewAccumulator returns an empty accumulator.
func NewAccumulator() *Accumulator { return sim.NewAccumulator() }

// Run simulates days [startDay, endDay) of the environment under sys,
// bootstrapping each location from the first near-clear day at or after
// bootstrapFrom. Locations are sharded across Env.Parallelism workers per
// day; results are identical at any worker count.
func Run(env *Env, sys System, bootstrapFrom, startDay, endDay int) (*Result, error) {
	return sim.Run(env, sys, bootstrapFrom, startDay, endDay)
}

// RunStream simulates like Run but hands each Record to emit in the
// deterministic serial order instead of retaining it; the returned Result
// carries the run aggregates with Records nil.
func RunStream(env *Env, sys System, bootstrapFrom, startDay, endDay int, emit func(*Record)) (*Result, error) {
	return sim.RunStream(env, sys, bootstrapFrom, startDay, endDay, emit)
}

// Summarize computes a run's aggregates under the given downlink model.
func Summarize(res *Result, down LinkBudget) Summary { return sim.Summarize(res, down) }

// EvalPSNR scores a ground reconstruction against the captured image over
// truly-clear tiles, pooled across bands — the paper's quality metric.
func EvalPSNR(cap *Capture, recon *Image, grid TileGrid) float64 {
	return sim.EvalPSNR(cap, recon, grid)
}

// WriteTrace writes a run as a JSON-lines trace.
func WriteTrace(w io.Writer, res *Result) error { return sim.WriteTrace(w, res) }

// ReadTrace reads a JSON-lines trace back into a Result.
func ReadTrace(r io.Reader) (*Result, error) { return sim.ReadTrace(r) }
