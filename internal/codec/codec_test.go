package codec

import (
	"bytes"
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"earthplus/internal/container"
	"earthplus/internal/eperr"
	"earthplus/internal/noise"
	"earthplus/internal/raster"
)

// testPlane builds a natural-ish test image: smooth fBm plus a few edges.
func testPlane(seed uint64, w, h int) []float32 {
	p := make([]float32, w*h)
	noise.New(seed).FillFBM(p, w, h, 6, 4)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			if x > w/2 && y > h/3 && y < 2*h/3 {
				p[y*w+x] = p[y*w+x]*0.3 + 0.6
			}
		}
	}
	return p
}

func planePSNR(a, b []float32) float64 {
	var sum float64
	for i := range a {
		d := float64(a[i] - b[i])
		sum += d * d
	}
	return raster.PSNR(sum / float64(len(a)))
}

func TestRoundTripHighQuality(t *testing.T) {
	const w, h = 64, 64
	plane := testPlane(1, w, h)
	data, err := EncodePlane(plane, w, h, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	got, gw, gh, err := DecodePlane(data, 0)
	if err != nil {
		t.Fatal(err)
	}
	if gw != w || gh != h {
		t.Fatalf("geometry %dx%d", gw, gh)
	}
	if psnr := planePSNR(plane, got); psnr < 50 {
		t.Fatalf("full-quality PSNR = %.2f dB, want > 50", psnr)
	}
}

func TestBudgetBoundsOutputSize(t *testing.T) {
	const w, h = 64, 64
	plane := testPlane(2, w, h)
	for _, budget := range []int{256, 512, 1024, 4096} {
		opt := DefaultOptions()
		opt.BudgetBytes = budget
		data, err := EncodePlane(plane, w, h, opt)
		if err != nil {
			t.Fatal(err)
		}
		// The rate controller accounts per symbol, including the header
		// and layer table, so the budget is exact (see TestBudgetExact
		// for the small-budget sweep).
		if len(data) > budget {
			t.Fatalf("budget %d produced %d bytes", budget, len(data))
		}
	}
}

func TestRateDistortionMonotone(t *testing.T) {
	const w, h = 64, 64
	plane := testPlane(3, w, h)
	budgets := []int{256, 512, 1024, 2048, 4096}
	prev := -math.MaxFloat64
	for _, budget := range budgets {
		opt := DefaultOptions()
		opt.BudgetBytes = budget
		data, err := EncodePlane(plane, w, h, opt)
		if err != nil {
			t.Fatal(err)
		}
		got, _, _, err := DecodePlane(data, 0)
		if err != nil {
			t.Fatal(err)
		}
		psnr := planePSNR(plane, got)
		if psnr < prev-0.25 { // small tolerance: truncation points are discrete
			t.Fatalf("PSNR fell from %.2f to %.2f at budget %d", prev, psnr, budget)
		}
		prev = psnr
	}
	if prev < 30 {
		t.Fatalf("4 KiB budget only reached %.2f dB", prev)
	}
}

func TestLayeredDecodeDegradesGracefully(t *testing.T) {
	const w, h = 64, 64
	plane := testPlane(4, w, h)
	data, err := EncodePlane(plane, w, h, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	info, err := Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	if info.NLayers < 4 {
		t.Fatalf("expected several layers, got %d", info.NLayers)
	}
	full, _, _, _ := DecodePlane(data, 0)
	half, _, _, _ := DecodePlane(data, info.NLayers/2)
	one, _, _, _ := DecodePlane(data, 1)
	pFull, pHalf, pOne := planePSNR(plane, full), planePSNR(plane, half), planePSNR(plane, one)
	if !(pFull > pHalf && pHalf > pOne) {
		t.Fatalf("layer PSNRs not ordered: full=%.2f half=%.2f one=%.2f", pFull, pHalf, pOne)
	}
	// Decoding "all layers" explicitly must equal the default.
	again, _, _, _ := DecodePlane(data, info.NLayers)
	for i := range full {
		if full[i] != again[i] {
			t.Fatal("maxLayers=NLayers differs from maxLayers=0")
		}
	}
}

func TestAllZeroPlane(t *testing.T) {
	const w, h = 32, 16
	data, err := EncodePlane(make([]float32, w*h), w, h, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(data) > 64 {
		t.Fatalf("all-zero plane cost %d bytes", len(data))
	}
	got, _, _, err := DecodePlane(data, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != 0 {
			t.Fatalf("pixel %d = %v, want 0", i, v)
		}
	}
}

func TestOddDimensions(t *testing.T) {
	const w, h = 37, 23
	plane := testPlane(5, w, h)
	data, err := EncodePlane(plane, w, h, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	got, gw, gh, err := DecodePlane(data, 0)
	if err != nil {
		t.Fatal(err)
	}
	if gw != w || gh != h {
		t.Fatalf("geometry %dx%d", gw, gh)
	}
	if psnr := planePSNR(plane, got); psnr < 45 {
		t.Fatalf("odd-size PSNR = %.2f dB", psnr)
	}
}

func TestEncodeRejectsBadInput(t *testing.T) {
	if _, err := EncodePlane(make([]float32, 10), 4, 4, DefaultOptions()); err == nil {
		t.Fatal("expected length mismatch error")
	}
	opt := DefaultOptions()
	opt.BaseStep = 0
	if _, err := EncodePlane(make([]float32, 16), 4, 4, opt); err == nil {
		t.Fatal("expected BaseStep error")
	}
}

func TestParseRejectsGarbage(t *testing.T) {
	if _, err := Parse([]byte("garbage")); err == nil {
		t.Fatal("expected parse error")
	}
	plane := testPlane(6, 16, 16)
	data, _ := EncodePlane(plane, 16, 16, DefaultOptions())
	for _, cut := range []int{5, 14, 20, len(data) - 1} {
		if cut >= len(data) {
			continue
		}
		if _, err := Parse(data[:cut]); err == nil {
			t.Fatalf("expected error parsing %d-byte prefix", cut)
		}
	}
}

func TestROIEncoding(t *testing.T) {
	const w, h = 128, 128
	im := raster.New(w, h, []raster.BandInfo{{Name: "g"}})
	copy(im.Plane(0), testPlane(7, w, h))
	g := raster.MustTileGrid(w, h, 64)
	roi := raster.NewTileMask(g)
	roi.Set[0] = true // keep only top-left tile

	masked := im.Clone()
	ZeroOutsideROI(masked, roi)
	// Non-ROI tiles must be zero.
	if masked.At(0, 100, 100) != 0 {
		t.Fatal("ZeroOutsideROI left non-ROI pixels")
	}
	// ROI tile preserved.
	if masked.At(0, 10, 10) != im.At(0, 10, 10) {
		t.Fatal("ZeroOutsideROI damaged ROI pixels")
	}

	opt := DefaultOptions()
	opt.BudgetBytes = 2048
	dataROI, err := EncodePlane(masked.Plane(0), w, h, opt)
	if err != nil {
		t.Fatal(err)
	}
	dataFull, err := EncodePlane(im.Plane(0), w, h, opt)
	if err != nil {
		t.Fatal(err)
	}
	decROI, _, _, _ := DecodePlane(dataROI, 0)
	decFull, _, _, _ := DecodePlane(dataFull, 0)
	roiOnly := func(t int) bool { return t == 0 }
	rec := raster.New(w, h, im.Bands)
	copy(rec.Plane(0), decROI)
	recFull := raster.New(w, h, im.Bands)
	copy(recFull.Plane(0), decFull)
	psnrROI := raster.PSNRMaskedTiles(im, rec, 0, g, roiOnly)
	psnrFull := raster.PSNRMaskedTiles(im, recFull, 0, g, roiOnly)
	// Spending the same budget on 1/4 of the area must beat spreading it.
	if psnrROI <= psnrFull {
		t.Fatalf("ROI PSNR %.2f <= full-frame PSNR %.2f on ROI tile", psnrROI, psnrFull)
	}
}

// TestEncodeImageDecodeImageRoundTrip: a multi-band image survives the
// frame encoder and the frame decoder on every profile, the frame bytes
// and the decoded bits do not depend on the worker count, and a frame
// with an absent band is not an image frame.
func TestEncodeImageDecodeImageRoundTrip(t *testing.T) {
	const w, h = 48, 32
	im := raster.New(w, h, raster.PlanetBands())
	for b := 0; b < im.NumBands(); b++ {
		copy(im.Plane(b), testPlane(uint64(10+b), w, h))
	}
	im.Clamp()
	tiled := DefaultOptions()
	tiled.Tiled = true
	for _, prof := range []struct {
		name string
		enc  func(p []float32) ([]byte, error)
	}{
		{"monolithic", func(p []float32) ([]byte, error) { return EncodePlane(p, w, h, DefaultOptions()) }},
		{"tiled", func(p []float32) ([]byte, error) { return EncodePlane(p, w, h, tiled) }},
		{"lossless", func(p []float32) ([]byte, error) { return EncodePlaneLossless(p, w, h, 5) }},
	} {
		var serialFrame container.Codestream
		var serialDec *raster.Image
		for _, par := range []int{1, 4} {
			frame, err := EncodeFrame(im.NumBands(), par, func(b int) ([]byte, error) { return prof.enc(im.Plane(b)) })
			if err != nil {
				t.Fatal(err)
			}
			dec, err := DecodeFrame(context.Background(), frame, im.Bands, 0, par)
			if err != nil {
				t.Fatalf("%s: %v", prof.name, err)
			}
			for b := 0; b < im.NumBands(); b++ {
				if psnr := raster.PSNRBand(im, dec, b); psnr < 48 {
					t.Fatalf("%s band %d PSNR = %.2f", prof.name, b, psnr)
				}
			}
			if par == 1 {
				serialFrame, serialDec = frame, dec
				continue
			}
			if !bytes.Equal(frame, serialFrame) || !sameImageBits(dec, serialDec) {
				t.Fatalf("%s: frame or decode differs at %d workers", prof.name, par)
			}
		}
		streams, err := serialFrame.Split()
		if err != nil {
			t.Fatal(err)
		}
		streams[2] = nil
		if _, err := DecodeFrame(context.Background(), container.Pack(streams), nil, 0, 0); !errors.Is(err, eperr.ErrBadCodestream) {
			t.Fatalf("%s: frame with an absent band: err = %v", prof.name, err)
		}
	}
}

// sameImageBits reports whether two images hold bit-identical samples.
func sameImageBits(a, b *raster.Image) bool {
	if !a.SameShape(b) {
		return false
	}
	for band, p := range a.Pix {
		for i, v := range p {
			if math.Float32bits(v) != math.Float32bits(b.Pix[band][i]) {
				return false
			}
		}
	}
	return true
}

// TestEncodeImageSplitsBudget: BandBudget gives each band γ bits per pixel
// of its own, floored at MinBudgetBytes, and a frame encoded under it
// keeps every band within that budget.
func TestEncodeImageSplitsBudget(t *testing.T) {
	const w, h = 64, 64
	if got := BandBudget(1.0, w*h); got != 512 {
		t.Fatalf("BandBudget(1 bpp, 64x64) = %d, want 512", got)
	}
	if got := BandBudget(0.05, w*h); got != MinBudgetBytes {
		t.Fatalf("BandBudget(0.05 bpp, 64x64) = %d, want the %d-byte floor", got, MinBudgetBytes)
	}
	im := raster.New(w, h, raster.PlanetBands())
	for b := 0; b < im.NumBands(); b++ {
		copy(im.Plane(b), testPlane(uint64(20+b), w, h))
	}
	opt := DefaultOptions()
	opt.BudgetBytes = BandBudget(1.0, w*h)
	frame, err := EncodeFrame(im.NumBands(), 0, func(b int) ([]byte, error) {
		return EncodePlane(im.Plane(b), w, h, opt)
	})
	if err != nil {
		t.Fatal(err)
	}
	lens, err := frame.PerBandLens()
	if err != nil {
		t.Fatal(err)
	}
	for b, n := range lens {
		if n == 0 || n > opt.BudgetBytes {
			t.Fatalf("band %d: %d bytes for a %d-byte budget", b, n, opt.BudgetBytes)
		}
	}
}

func TestDecodeTruncatedPayloadErrors(t *testing.T) {
	plane := testPlane(8, 32, 32)
	data, _ := EncodePlane(plane, 32, 32, DefaultOptions())
	if _, _, _, err := DecodePlane(data[:len(data)-3], 0); err == nil {
		t.Fatal("expected truncated payload error")
	}
}

// Property: decoding always reproduces the encoder's geometry, and PSNR at
// generous budgets stays sane for arbitrary smooth content.
func TestRoundTripGeometryProperty(t *testing.T) {
	f := func(seed uint64, wRaw, hRaw uint8) bool {
		w := int(wRaw%48) + 9
		h := int(hRaw%48) + 9
		plane := make([]float32, w*h)
		noise.New(seed).FillFBM(plane, w, h, 4, 3)
		data, err := EncodePlane(plane, w, h, DefaultOptions())
		if err != nil {
			return false
		}
		got, gw, gh, err := DecodePlane(data, 0)
		if err != nil || gw != w || gh != h {
			return false
		}
		return planePSNR(plane, got) > 40
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestBudgetForBPP(t *testing.T) {
	if got := BudgetForBPP(0.5, 512, 512); got != 16384 {
		t.Fatalf("BudgetForBPP = %d, want 16384", got)
	}
}

func TestCompressionBeatsRawAtModestQuality(t *testing.T) {
	const w, h = 128, 128
	plane := testPlane(9, w, h)
	opt := DefaultOptions()
	opt.BudgetBytes = BudgetForBPP(1.0, w, h) // 1 bpp vs 32 bpp raw float
	data, err := EncodePlane(plane, w, h, opt)
	if err != nil {
		t.Fatal(err)
	}
	got, _, _, _ := DecodePlane(data, 0)
	if psnr := planePSNR(plane, got); psnr < 35 {
		t.Fatalf("1 bpp PSNR = %.2f dB, want >= 35", psnr)
	}
}

func BenchmarkEncode256At05BPP(b *testing.B) {
	plane := testPlane(11, 256, 256)
	opt := DefaultOptions()
	opt.BudgetBytes = BudgetForBPP(0.5, 256, 256)
	b.SetBytes(256 * 256 * 4)
	for i := 0; i < b.N; i++ {
		if _, err := EncodePlane(plane, 256, 256, opt); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecode256At05BPP(b *testing.B) {
	plane := testPlane(11, 256, 256)
	opt := DefaultOptions()
	opt.BudgetBytes = BudgetForBPP(0.5, 256, 256)
	data, err := EncodePlane(plane, 256, 256, opt)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(256 * 256 * 4)
	for i := 0; i < b.N; i++ {
		if _, _, _, err := DecodePlane(data, 0); err != nil {
			b.Fatal(err)
		}
	}
}

var sinkBytes []byte

func BenchmarkEncodeLossless64(b *testing.B) {
	plane := testPlane(12, 64, 64)
	for i := 0; i < b.N; i++ {
		data, err := EncodePlane(plane, 64, 64, DefaultOptions())
		if err != nil {
			b.Fatal(err)
		}
		sinkBytes = data
	}
}

func init() {
	// Warm the subband-norm cache deterministically so benchmarks measure
	// steady-state cost.
	_ = rand.Int
}

// Decoding arbitrary corrupted bytes must return an error or garbage, never
// panic — the downlink is modeled as reliable but the library should not
// trust its inputs.
func TestDecodeCorruptedStreamNeverPanics(t *testing.T) {
	plane := testPlane(55, 48, 48)
	data, err := EncodePlane(plane, 48, 48, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(123))
	for trial := 0; trial < 200; trial++ {
		corrupt := append([]byte(nil), data...)
		for k := 0; k < 1+rng.Intn(8); k++ {
			corrupt[rng.Intn(len(corrupt))] ^= byte(1 << rng.Intn(8))
		}
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("trial %d panicked: %v", trial, r)
				}
			}()
			_, _, _, _ = DecodePlane(corrupt, 0)
		}()
	}
}

// Encoding is deterministic: identical inputs yield identical bytes.
func TestEncodeDeterministic(t *testing.T) {
	plane := testPlane(56, 64, 64)
	opt := DefaultOptions()
	opt.BudgetBytes = 2048
	a, err := EncodePlane(plane, 64, 64, opt)
	if err != nil {
		t.Fatal(err)
	}
	b, err := EncodePlane(plane, 64, 64, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("byte %d differs", i)
		}
	}
}
