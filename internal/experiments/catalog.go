package experiments

// Job is one runnable evaluation artefact: a stable key (what
// `earthplus-bench -only` matches) and the function that regenerates it.
type Job struct {
	Key string
	Run func() (Result, error)
}

// Catalog lists every regenerable table, figure, ablation and performance
// snapshot at the given scale, in render order. benchJSON and
// simBenchJSON name the files the two perf snapshots write (empty =
// don't write). cmd/earthplus-bench and the public API iterate this
// instead of hand-rolling the job table.
func Catalog(sc Scale, benchJSON, simBenchJSON string) []Job {
	return []Job{
		{"table1", func() (Result, error) { return Table1(), nil }},
		{"table2", func() (Result, error) { return Table2(sc), nil }},
		{"fig4", func() (Result, error) { return Fig4(sc), nil }},
		{"fig5", func() (Result, error) { return Fig5(sc), nil }},
		{"fig8", func() (Result, error) { return Fig8(sc), nil }},
		{"fig11a", func() (Result, error) { return Fig11(sc, RichContent) }},
		{"fig11b", func() (Result, error) { return Fig11(sc, PlanetSampled) }},
		{"fig12", func() (Result, error) { return Fig12(sc) }},
		{"fig13", func() (Result, error) { return Fig13(sc) }},
		{"fig14", func() (Result, error) { return Fig14(sc) }},
		{"fig15", func() (Result, error) { return Fig15(sc) }},
		{"fig16", func() (Result, error) { return Fig16(sc) }},
		{"fig17", func() (Result, error) { return Fig17(sc) }},
		{"fig18", func() (Result, error) { return Fig18(sc) }},
		{"fig19", func() (Result, error) { return Fig19(sc) }},
		{"storagesweep", func() (Result, error) { return StorageSweep(sc) }},
		{"losssweep", func() (Result, error) { return LossSweep(sc) }},
		{"constsweep", func() (Result, error) { return ConstellationSweep(sc) }},
		{"ablation-theta", func() (Result, error) { return AblationTheta(sc) }},
		{"ablation-guarantee", func() (Result, error) { return AblationGuarantee(sc) }},
		{"ablation-reject", func() (Result, error) { return AblationReject(sc) }},
		{"codecbench", func() (Result, error) { return CodecBench(benchJSON) }},
		{"simbench", func() (Result, error) { return SimBench(simBenchJSON) }},
	}
}
