package earthplus

import "earthplus/internal/experiments"

// Scale sizes an experiment run: scene size, profiling and evaluation
// windows, the sweep points, and the base SystemSpec of the Earth+ runs.
type Scale = experiments.Scale

// ExperimentResult is one regenerated table or figure.
type ExperimentResult = experiments.Result

// ExperimentJob pairs a stable key with the function regenerating one
// evaluation artefact.
type ExperimentJob = experiments.Job

// QuickScale is the fast default experiment scale.
func QuickScale() Scale { return experiments.QuickScale() }

// FullScale runs closer to paper scale.
func FullScale() Scale { return experiments.FullScale() }

// Experiments lists every regenerable artefact of the paper's evaluation
// at a scale, in render order. benchJSON and simBenchJSON name the files
// the codec and sim performance snapshots write (empty = don't write).
func Experiments(sc Scale, benchJSON, simBenchJSON string) []ExperimentJob {
	return experiments.Catalog(sc, benchJSON, simBenchJSON)
}

// SetSimWorkers sets the default number of locations simulated
// concurrently per day for the experiment sweeps (<= 0 means GOMAXPROCS,
// 1 means one worker; results are identical at any setting).
// Per-run control is Env.Parallelism.
func SetSimWorkers(n int) { experiments.SimWorkers = n }
