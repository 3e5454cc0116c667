package earthplus_test

import (
	"io"
	"testing"

	"earthplus/internal/experiments"
)

// Each benchmark regenerates one of the paper's tables or figures and is
// named after it. The benches run at the tiny calibration scale so `go test -bench=.` stays tractable;
// cmd/earthplus-bench runs the same experiments at quick or full scale and
// prints the regenerated rows/series.

func benchScale() experiments.Scale { return experiments.Tiny() }

// renderTo keeps the compiler from eliding results without spamming bench
// output.
func renderTo(b *testing.B, r experiments.Result) {
	b.Helper()
	if err := r.Render(io.Discard); err != nil {
		b.Fatal(err)
	}
}

func BenchmarkTable1Spec(b *testing.B) {
	for i := 0; i < b.N; i++ {
		renderTo(b, experiments.Table1())
	}
}

func BenchmarkTable2Datasets(b *testing.B) {
	for i := 0; i < b.N; i++ {
		renderTo(b, experiments.Table2(benchScale()))
	}
}

func BenchmarkFig4ChangedTilesVsAge(b *testing.B) {
	for i := 0; i < b.N; i++ {
		renderTo(b, experiments.Fig4(benchScale()))
	}
}

func BenchmarkFig5ReferenceAgeCDF(b *testing.B) {
	for i := 0; i < b.N; i++ {
		renderTo(b, experiments.Fig5(benchScale()))
	}
}

func BenchmarkFig8DownsampledDetection(b *testing.B) {
	for i := 0; i < b.N; i++ {
		renderTo(b, experiments.Fig8(benchScale()))
	}
}

func BenchmarkFig11TradeoffRich(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig11(benchScale(), experiments.RichContent)
		if err != nil {
			b.Fatal(err)
		}
		renderTo(b, r)
	}
}

func BenchmarkFig11TradeoffPlanet(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig11(benchScale(), experiments.PlanetSampled)
		if err != nil {
			b.Fatal(err)
		}
		renderTo(b, r)
	}
}

func BenchmarkFig12CDF(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig12(benchScale())
		if err != nil {
			b.Fatal(err)
		}
		renderTo(b, r)
	}
}

func BenchmarkFig13TimeSeries(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig13(benchScale())
		if err != nil {
			b.Fatal(err)
		}
		renderTo(b, r)
	}
}

func BenchmarkFig14PerLocationAndBand(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig14(benchScale())
		if err != nil {
			b.Fatal(err)
		}
		renderTo(b, r)
	}
}

func BenchmarkFig15Storage(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig15(benchScale())
		if err != nil {
			b.Fatal(err)
		}
		renderTo(b, r)
	}
}

func BenchmarkFig16Runtime(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig16(benchScale())
		if err != nil {
			b.Fatal(err)
		}
		renderTo(b, r)
	}
}

func BenchmarkFig17UplinkCompression(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig17(benchScale())
		if err != nil {
			b.Fatal(err)
		}
		renderTo(b, r)
	}
}

func BenchmarkFig18UplinkSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig18(benchScale())
		if err != nil {
			b.Fatal(err)
		}
		renderTo(b, r)
	}
}

func BenchmarkFig19ConstellationScaling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig19(benchScale())
		if err != nil {
			b.Fatal(err)
		}
		renderTo(b, r)
	}
}

func BenchmarkAblationTheta(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.AblationTheta(benchScale())
		if err != nil {
			b.Fatal(err)
		}
		renderTo(b, r)
	}
}

func BenchmarkAblationGuarantee(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.AblationGuarantee(benchScale())
		if err != nil {
			b.Fatal(err)
		}
		renderTo(b, r)
	}
}

func BenchmarkAblationReject(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.AblationReject(benchScale())
		if err != nil {
			b.Fatal(err)
		}
		renderTo(b, r)
	}
}
