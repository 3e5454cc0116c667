package noise

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterministicAcrossInstances(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 100; i++ {
		x, y := float64(i)*0.37, float64(i)*0.11
		if a.At(x, y) != b.At(x, y) {
			t.Fatalf("same seed disagrees at (%v,%v)", x, y)
		}
	}
	c := New(43)
	same := 0
	for i := 0; i < 100; i++ {
		x, y := float64(i)*0.37, float64(i)*0.11
		if a.At(x, y) == c.At(x, y) {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds agree at %d/100 points", same)
	}
}

func TestAtRangeProperty(t *testing.T) {
	s := New(7)
	f := func(x, y float64) bool {
		if math.IsNaN(x) || math.IsNaN(y) || math.Abs(x) > 1e6 || math.Abs(y) > 1e6 {
			return true
		}
		v := s.At(x, y)
		return v >= 0 && v < 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestAtMatchesLatticeAtIntegers(t *testing.T) {
	s := New(9)
	for _, p := range [][2]int64{{0, 0}, {3, 5}, {-2, 7}} {
		want := s.lattice(p[0], p[1])
		got := s.At(float64(p[0]), float64(p[1]))
		if math.Abs(got-want) > 1e-12 {
			t.Fatalf("At(%v) = %v, lattice = %v", p, got, want)
		}
	}
}

func TestAtIsContinuous(t *testing.T) {
	s := New(11)
	// Small coordinate steps must produce small value steps.
	prev := s.At(0.5, 0.5)
	for i := 1; i <= 1000; i++ {
		v := s.At(0.5+float64(i)*0.001, 0.5)
		if math.Abs(v-prev) > 0.02 {
			t.Fatalf("discontinuity at step %d: %v -> %v", i, prev, v)
		}
		prev = v
	}
}

func TestFBMRangeAndVariation(t *testing.T) {
	s := New(13)
	var minV, maxV = 1.0, 0.0
	for y := 0; y < 32; y++ {
		for x := 0; x < 32; x++ {
			v := s.FBM(float64(x)*0.2, float64(y)*0.2, 4, 2, 0.5)
			if v < 0 || v >= 1 {
				t.Fatalf("FBM out of range: %v", v)
			}
			minV = math.Min(minV, v)
			maxV = math.Max(maxV, v)
		}
	}
	if maxV-minV < 0.2 {
		t.Fatalf("FBM field suspiciously flat: range %v", maxV-minV)
	}
}

func TestFBMZeroOctaves(t *testing.T) {
	if got := New(1).FBM(1, 1, 0, 2, 0.5); got != 0 {
		t.Fatalf("0-octave FBM = %v, want 0", got)
	}
}

func TestFillFBM(t *testing.T) {
	s := New(17)
	plane := make([]float32, 16*8)
	s.FillFBM(plane, 16, 8, 4, 3)
	var sum float64
	for _, v := range plane {
		if v < 0 || v >= 1 {
			t.Fatalf("FillFBM value out of range: %v", v)
		}
		sum += float64(v)
	}
	if sum == 0 {
		t.Fatal("FillFBM left plane all zeros")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("FillFBM with wrong plane size did not panic")
		}
	}()
	s.FillFBM(make([]float32, 3), 16, 8, 4, 3)
}

// FillFBM hoists FBM's per-pixel lattice work into per-call and per-row
// tables; every value must still equal the pointwise FBM bit for bit, at
// every (frequency, octaves) pair internal/scene passes (w/3 is the
// microtexture's frequency) and on an odd non-square plane.
func TestFillFBMMatchesPointwiseFBM(t *testing.T) {
	type pair struct {
		freq    float64 // 0 stands for w/3
		octaves int
	}
	pairs := []pair{
		{3, 2}, {0, 2}, {4, 4}, {2, 2}, // seasonal, microtexture, clouds, atmosphere
		{5, 6}, {7, 3}, {24, 2}, {18, 2}, {10, 1}, {3, 4}, {8, 3}, {9, 3}, {6, 4}, {12, 4}, // terrain
		{4, 0}, {4, -1}, // no octaves: zeros
	}
	sizes := [][2]int{{37, 23}, {48, 48}, {64, 64}, {96, 96}, {192, 192}, {384, 384}}
	for _, seed := range []uint64{1, 42, 0x9e3779b97f4a7c15} {
		s := New(seed)
		for _, sz := range sizes {
			w, h := sz[0], sz[1]
			plane := make([]float32, w*h)
			for _, p := range pairs {
				freq := p.freq
				if freq == 0 {
					freq = float64(w) / 3
				}
				for i := range plane {
					plane[i] = -1 // stale content must be overwritten
				}
				s.FillFBM(plane, w, h, freq, p.octaves)
				sx, sy := freq/float64(w), freq/float64(h)
				for y := 0; y < h; y++ {
					for x := 0; x < w; x++ {
						want := float32(s.FBM(float64(x)*sx, float64(y)*sy, p.octaves, 2, 0.5))
						if got := plane[y*w+x]; math.Float32bits(got) != math.Float32bits(want) {
							t.Fatalf("seed %#x %dx%d freq %v octaves %d: (%d,%d) = %v, pointwise FBM %v",
								seed, w, h, freq, p.octaves, x, y, got, want)
						}
					}
				}
			}
		}
	}
}

func BenchmarkFillFBM(b *testing.B) {
	const w = 192
	s := New(7)
	plane := make([]float32, w*w)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.FillFBM(plane, w, w, 4, 4)
	}
}

func TestUniformStreamIndependence(t *testing.T) {
	s := New(21)
	seen := map[float64]bool{}
	for k := int64(0); k < 100; k++ {
		v := s.Uniform(5, k)
		if v < 0 || v >= 1 {
			t.Fatalf("Uniform out of range: %v", v)
		}
		if seen[v] {
			t.Fatalf("duplicate uniform %v", v)
		}
		seen[v] = true
	}
	if s.Uniform(5, 0) != s.Uniform(5, 0) {
		t.Fatal("Uniform not a pure function")
	}
	if s.Uniform(5, 0) == s.Uniform(6, 0) {
		t.Fatal("streams collide")
	}
}

func TestNormalMoments(t *testing.T) {
	s := New(23)
	const n = 20000
	var sum, sumSq float64
	for k := int64(0); k < n; k++ {
		v := s.Normal(1, k)
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.03 {
		t.Fatalf("normal mean = %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.05 {
		t.Fatalf("normal variance = %v, want ~1", variance)
	}
}
