package illum

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

func TestFitRecoversExactLinearModel(t *testing.T) {
	ref := make([]float32, 256)
	cap := make([]float32, 256)
	for i := range ref {
		ref[i] = float32(i) / 256
		cap[i] = 1.1*ref[i] + 0.03
	}
	m, ok := Fit(ref, cap, nil)
	if !ok {
		t.Fatal("fit failed")
	}
	if math.Abs(m.Gain-1.1) > 1e-4 || math.Abs(m.Offset-0.03) > 1e-4 {
		t.Fatalf("model = %+v, want gain 1.1 offset 0.03", m)
	}
}

func TestFitRecoversUnderNoiseProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		gain := 0.85 + rng.Float64()*0.3 // 0.85 - 1.15 as in the scene model
		offset := (rng.Float64() - 0.5) * 0.1
		ref := make([]float32, 1024)
		cap := make([]float32, 1024)
		for i := range ref {
			ref[i] = rng.Float32()
			cap[i] = float32(gain)*ref[i] + float32(offset) + float32(rng.NormFloat64()*0.005)
		}
		m, ok := Fit(ref, cap, nil)
		return ok && math.Abs(m.Gain-gain) < 0.02 && math.Abs(m.Offset-offset) < 0.02
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestFitHonoursUseMask(t *testing.T) {
	ref := make([]float32, 200)
	cap := make([]float32, 200)
	use := make([]bool, 200)
	for i := range ref {
		ref[i] = float32(i) / 200
		if i < 100 {
			cap[i] = 0.9*ref[i] + 0.01 // clean pixels
			use[i] = true
		} else {
			cap[i] = 0.95 // "cloud": junk that must be ignored
		}
	}
	m, ok := Fit(ref, cap, use)
	if !ok || math.Abs(m.Gain-0.9) > 1e-3 || math.Abs(m.Offset-0.01) > 1e-3 {
		t.Fatalf("masked fit = %+v ok=%v", m, ok)
	}
}

func TestFitRejectsDegenerateInputs(t *testing.T) {
	// Too few samples.
	if _, ok := Fit(make([]float32, 8), make([]float32, 8), nil); ok {
		t.Fatal("fit accepted 8 samples")
	}
	// Constant reference: no variance.
	ref := make([]float32, 64)
	cap := make([]float32, 64)
	for i := range ref {
		ref[i] = 0.5
		cap[i] = float32(i) / 64
	}
	if m, ok := Fit(ref, cap, nil); ok || m != Identity {
		t.Fatalf("constant-ref fit = %+v ok=%v", m, ok)
	}
	// Anti-correlated (negative gain) content must be refused.
	for i := range ref {
		ref[i] = float32(i) / 64
		cap[i] = 1 - ref[i]
	}
	if _, ok := Fit(ref, cap, nil); ok {
		t.Fatal("fit accepted negative gain")
	}
}

// TestFitRejectsNonFinitePixels: one NaN or infinite pixel, in the
// capture or the reference, among the usable ones leaves no defined
// model, so Fit and FitRobust refuse it rather than return a NaN model
// that Normalize would spread over the whole plane.
func TestFitRejectsNonFinitePixels(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, side := range []string{"capture", "reference"} {
			for _, at := range []int{0, 137, 255} {
				ref, cap := fitInput(rng, 256, 0, 0.1)
				if m, ok := Fit(ref, cap, nil); !ok {
					t.Fatalf("clean input refused: %+v", m)
				}
				if side == "capture" {
					cap[at] = float32(bad)
				} else {
					ref[at] = float32(bad)
				}
				if m, ok := Fit(ref, cap, nil); ok || m != Identity {
					t.Fatalf("Fit with %v at %s pixel %d = %+v ok=%v, want Identity, false", bad, side, at, m, ok)
				}
				if m, ok := FitRobust(ref, cap, nil, 0.2); ok || m != Identity {
					t.Fatalf("FitRobust with %v at %s pixel %d = %+v ok=%v, want Identity, false", bad, side, at, m, ok)
				}
			}
		}
	}
}

func TestNormalizeInvertsApply(t *testing.T) {
	m := Model{Gain: 1.07, Offset: -0.02}
	orig := []float32{0.1, 0.5, 0.9, 0.33}
	vals := append([]float32(nil), orig...)
	m.Apply(vals)
	m.Normalize(vals)
	for i := range vals {
		if math.Abs(float64(vals[i]-orig[i])) > 1e-6 {
			t.Fatalf("round trip drifted at %d: %v vs %v", i, vals[i], orig[i])
		}
	}
}

func TestIdentityIsNoOp(t *testing.T) {
	vals := []float32{0.25, 0.75}
	Identity.Normalize(vals)
	Identity.Apply(vals)
	if vals[0] != 0.25 || vals[1] != 0.75 {
		t.Fatalf("identity modified values: %v", vals)
	}
}

func TestNormalizeRemovesIlluminationBias(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	ref := make([]float32, 512)
	cap := make([]float32, 512)
	for i := range ref {
		ref[i] = rng.Float32()
		cap[i] = 1.12*ref[i] + 0.04
	}
	m, ok := Fit(ref, cap, nil)
	if !ok {
		t.Fatal("fit failed")
	}
	m.Normalize(cap)
	var maxDiff float64
	for i := range ref {
		if d := math.Abs(float64(cap[i] - ref[i])); d > maxDiff {
			maxDiff = d
		}
	}
	if maxDiff > 1e-3 {
		t.Fatalf("after normalisation max residual = %v", maxDiff)
	}
}

// fitRobustSorted is the trimmed fit with each round's cut read from a
// full sort of the absolute residuals. It defines what FitRobust's
// selection must match: the same ok and the same Model bits.
func fitRobustSorted(ref, cap []float32, use []bool, trimFrac float64) (Model, bool) {
	m, ok := Fit(ref, cap, use)
	if !ok {
		return m, false
	}
	if trimFrac <= 0 || trimFrac >= 1 {
		return m, ok
	}
	cur := make([]bool, len(ref))
	if use != nil {
		copy(cur, use)
	} else {
		for i := range cur {
			cur[i] = true
		}
	}
	resid := make([]float64, len(ref))
	for r := 0; r < trimRounds; r++ {
		var abs []float64
		for i := range ref {
			if !cur[i] {
				continue
			}
			resid[i] = float64(cap[i]) - (m.Gain*float64(ref[i]) + m.Offset)
			if resid[i] < 0 {
				abs = append(abs, -resid[i])
			} else {
				abs = append(abs, resid[i])
			}
		}
		if len(abs) < 4*minSamples {
			return m, ok
		}
		sort.Float64s(abs)
		cut := abs[int(float64(len(abs))*(1-trimFrac))]
		next := make([]bool, len(cur))
		kept := 0
		for i := range ref {
			if !cur[i] {
				continue
			}
			d := resid[i]
			if d < 0 {
				d = -d
			}
			if d <= cut {
				next[i] = true
				kept++
			}
		}
		if kept < 2*minSamples {
			return m, ok
		}
		cur = next
		m2, ok2 := Fit(ref, cap, cur)
		if !ok2 {
			return m, ok
		}
		m = m2
	}
	return m, true
}

// fitInput builds a capture that follows ref under a random illumination
// model, with noise and a one-sided haze tail on a share of the pixels.
// levels > 0 quantises both images to that many levels, so many residuals
// tie.
func fitInput(rng *rand.Rand, n, levels int, haze float64) (ref, cap []float32) {
	gain := 0.85 + rng.Float64()*0.3
	offset := (rng.Float64() - 0.5) * 0.1
	ref = make([]float32, n)
	cap = make([]float32, n)
	for i := range ref {
		ref[i] = rng.Float32()
		v := gain*float64(ref[i]) + offset + rng.NormFloat64()*0.01
		if rng.Float64() < haze {
			v += 0.1 + 0.3*rng.Float64()
		}
		cap[i] = float32(v)
		if levels > 0 {
			ref[i] = float32(math.Round(float64(ref[i])*float64(levels))) / float32(levels)
			cap[i] = float32(math.Round(float64(cap[i])*float64(levels))) / float32(levels)
		}
	}
	return ref, cap
}

func TestFitRobustMatchesSortedReference(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	sizes := []int{0, 5, selectCutoff, selectCutoff + 1, 16, 40, 64, 65, 100, 257, 1000, 48 * 48, 96 * 96, 192 * 192}
	masks := []struct {
		name string
		make func(n int) []bool
	}{
		{"nil", func(int) []bool { return nil }},
		{"partial", func(n int) []bool { return randomMask(rng, n, 0.7) }},
		{"sparse", func(n int) []bool { return randomMask(rng, n, 0.05) }},
	}
	inputs := []struct {
		name string
		make func(n int) ([]float32, []float32)
	}{
		{"continuous", func(n int) ([]float32, []float32) { return fitInput(rng, n, 0, 0.1) }},
		{"clean", func(n int) ([]float32, []float32) { return fitInput(rng, n, 0, 0) }},
		{"ties", func(n int) ([]float32, []float32) { return fitInput(rng, n, 16, 0.1) }},
		{"heavy-ties", func(n int) ([]float32, []float32) { return fitInput(rng, n, 3, 0.2) }},
		{"nan-capture", func(n int) ([]float32, []float32) {
			ref, cap := fitInput(rng, n, 0, 0.1)
			for i := range cap {
				if rng.Float64() < 0.02 {
					cap[i] = float32(math.NaN())
				}
			}
			return ref, cap
		}},
	}
	cases, refused := 0, 0
	for _, n := range sizes {
		for _, in := range inputs {
			for _, mask := range masks {
				for _, trim := range []float64{0.2, 0.25} {
					ref, cap := in.make(n)
					use := mask.make(n)
					want, wantOK := fitRobustSorted(ref, cap, use, trim)
					got, gotOK := FitRobust(ref, cap, use, trim)
					if gotOK != wantOK ||
						math.Float64bits(got.Gain) != math.Float64bits(want.Gain) ||
						math.Float64bits(got.Offset) != math.Float64bits(want.Offset) {
						t.Fatalf("n=%d %s %s trim=%v: FitRobust = %+v ok=%v, sorted reference = %+v ok=%v",
							n, in.name, mask.name, trim, got, gotOK, want, wantOK)
					}
					cases++
					if !gotOK {
						refused++
					}
				}
			}
		}
	}
	t.Logf("%d cases bit-identical, %d of them refused (ok=false)", cases, refused)
}

// sameOrderValue reports whether a and b are equal under sort.Float64s'
// order, which ties −0 with +0 and every NaN with every other NaN.
func sameOrderValue(a, b float64) bool {
	return a == b || (math.IsNaN(a) && math.IsNaN(b))
}

func TestSelectAtMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	special := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1), 1, -1, 0.5}
	// Each generator gives the value at index i of an n-element slice.
	gen := []struct {
		name string
		at   func(i, n int) float64
	}{
		{"uniform", func(int, int) float64 { return rng.Float64() }},
		{"special", func(int, int) float64 { return special[rng.Intn(len(special))] }},
		{"mixed", func(int, int) float64 {
			if rng.Float64() < 0.2 {
				return special[rng.Intn(len(special))]
			}
			return rng.NormFloat64()
		}},
		{"all-equal", func(int, int) float64 { return 0.25 }},
		{"signed-zeros", func(int, int) float64 { return math.Copysign(0, rng.Float64()-0.5) }},
		{"all-nan", func(int, int) float64 { return math.NaN() }},
		{"ascending", func(i, _ int) float64 { return float64(i) }},
		{"descending", func(i, n int) float64 { return float64(n - i) }},
		{"organ-pipe", func(i, n int) float64 { return float64(min(i, n-1-i)) }},
	}
	for _, g := range gen {
		for _, n := range []int{1, 2, 3, selectCutoff, selectCutoff + 1, 50, 257, 4000} {
			in := make([]float64, n)
			for i := range in {
				in[i] = g.at(i, n)
			}
			sorted := slices.Clone(in)
			sort.Float64s(sorted)
			ks := []int{0, n / 2, n - 1, int(float64(n) * 0.8), int(float64(n) * 0.75)}
			if n <= 50 {
				ks = ks[:0]
				for k := 0; k < n; k++ {
					ks = append(ks, k)
				}
			}
			for _, k := range ks {
				a := slices.Clone(in)
				got := selectAt(a, k)
				if !sameOrderValue(got, sorted[k]) || !sameOrderValue(a[k], got) {
					t.Fatalf("%s n=%d k=%d: selectAt = %v (a[k] = %v), sort.Float64s = %v", g.name, n, k, got, a[k], sorted[k])
				}
				if !samePermutation(a, in) {
					t.Fatalf("%s n=%d k=%d: selectAt did not permute its input", g.name, n, k)
				}
			}
		}
	}
}

// TestQuickselectFallsBackToSort runs quickselect with every partition
// budget down to none, so the sort that bounds its worst case starts from
// each stage of a partitioned range.
func TestQuickselectFallsBackToSort(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, levels := range []int{0, 4} {
		in := make([]float64, 500)
		for i := range in {
			in[i] = rng.Float64()
			if levels > 0 {
				in[i] = math.Floor(in[i] * float64(levels))
			}
		}
		sorted := slices.Clone(in)
		sort.Float64s(sorted)
		for depth := 0; depth <= 6; depth++ {
			for _, k := range []int{0, 1, 250, 400, 499} {
				a := slices.Clone(in)
				if got := quickselect(a, k, depth); got != sorted[k] {
					t.Fatalf("levels=%d depth=%d k=%d: quickselect = %v, want %v", levels, depth, k, got, sorted[k])
				}
			}
		}
	}
}

// samePermutation reports whether a and b hold the same float64 bit
// patterns, counted with multiplicity.
func samePermutation(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	count := map[uint64]int{}
	for i := range a {
		count[math.Float64bits(a[i])]++
		count[math.Float64bits(b[i])]--
	}
	for _, c := range count {
		if c != 0 {
			return false
		}
	}
	return true
}

// TestFitRobustIgnoresHaze is what the trim is for: haze brightens a tenth
// of the pixels one-sidedly, which biases least squares bright, and the
// trimmed refits recover the clean model.
func TestFitRobustIgnoresHaze(t *testing.T) {
	const gain, offset = 1.08, -0.03
	rng := rand.New(rand.NewSource(11))
	ref := make([]float32, 96*96)
	cap := make([]float32, len(ref))
	for i := range ref {
		ref[i] = rng.Float32()
		cap[i] = float32(gain*float64(ref[i]) + offset + rng.NormFloat64()*0.005)
		if i%10 == 3 {
			cap[i] += 0.3
		}
	}
	ols, ok := Fit(ref, cap, nil)
	if !ok {
		t.Fatal("Fit failed")
	}
	if math.Abs(ols.Offset-offset) < 0.02 {
		t.Fatalf("Fit = %+v: want the haze to bias its offset by about 0.03", ols)
	}
	m, ok := FitRobust(ref, cap, nil, 0.2)
	if !ok {
		t.Fatal("FitRobust failed")
	}
	if math.Abs(m.Gain-gain) > 0.005 || math.Abs(m.Offset-offset) > 0.003 {
		t.Fatalf("FitRobust = %+v, want gain %v offset %v within 0.005 / 0.003 (Fit read %+v)", m, gain, offset, ols)
	}
	t.Logf("Fit %+v, FitRobust %+v, truth gain %v offset %v", ols, m, gain, offset)
}

// TestFitRobustAllocatesFixedBuffers pins FitRobust to the three buffers
// it makes per call (keep mask, per-pixel residuals, selection scratch),
// whatever the image size.
func TestFitRobustAllocatesFixedBuffers(t *testing.T) {
	for _, tc := range benchFitCases() {
		ref, cap, use := tc.inputs()
		allocs := testing.AllocsPerRun(20, func() {
			if _, ok := FitRobust(ref, cap, use, 0.2); !ok {
				t.Fatal("FitRobust failed")
			}
		})
		if allocs != 3 {
			t.Errorf("%s: FitRobust allocates %v times per call, want 3", tc.name, allocs)
		}
	}
}

type fitCase struct {
	name    string
	side    int
	useFrac float64 // share of pixels the use mask keeps; 1 = nil mask
}

// benchFitCases are the sizes the pipeline and the ground fit: the on-board
// detection resolution (48² at the default downsample, 96² at 2) under a
// clear-pixel mask, and the ground's 192² reference-based cloud check
// without one.
func benchFitCases() []fitCase {
	return []fitCase{
		{"48x48-masked", 48, 0.8},
		{"96x96-masked", 96, 0.8},
		{"192x192", 192, 1},
	}
}

func (c fitCase) inputs() (ref, cap []float32, use []bool) {
	rng := rand.New(rand.NewSource(int64(c.side)))
	ref, cap = fitInput(rng, c.side*c.side, 0, 0.1)
	if c.useFrac < 1 {
		use = randomMask(rng, len(ref), c.useFrac)
	}
	return ref, cap, use
}

// randomMask keeps each pixel with probability keep.
func randomMask(rng *rand.Rand, n int, keep float64) []bool {
	use := make([]bool, n)
	for i := range use {
		use[i] = rng.Float64() < keep
	}
	return use
}

var fitSink Model

func BenchmarkFitRobust(b *testing.B) {
	for _, tc := range benchFitCases() {
		ref, cap, use := tc.inputs()
		b.Run(tc.name, func(b *testing.B) {
			b.SetBytes(int64(len(ref)) * 8)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				fitSink, _ = FitRobust(ref, cap, use, 0.2)
			}
		})
	}
}
