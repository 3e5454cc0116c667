package codec

import (
	"slices"
	"strings"
	"testing"

	"earthplus/internal/container"
	"earthplus/internal/noise"
	"earthplus/internal/raster"
)

func TestMosaicDims(t *testing.T) {
	cases := []struct{ n, cols, rows int }{
		{0, 0, 0}, {1, 1, 1}, {2, 2, 1}, {3, 2, 2}, {4, 2, 2},
		{5, 3, 2}, {9, 3, 3}, {10, 4, 3}, {16, 4, 4},
	}
	for _, c := range cases {
		cols, rows := mosaicDims(c.n)
		if cols != c.cols || rows != c.rows {
			t.Errorf("mosaicDims(%d) = %d,%d want %d,%d", c.n, cols, rows, c.cols, c.rows)
		}
		if c.n > 0 && cols*rows < c.n {
			t.Errorf("mosaicDims(%d) too small", c.n)
		}
	}
}

func TestROIPlaneRoundTripHighQuality(t *testing.T) {
	const w, h, tile = 128, 128, 16
	g := raster.MustTileGrid(w, h, tile)
	plane := testPlane(31, w, h)
	roi := raster.NewTileMask(g)
	for _, tl := range []int{0, 5, 17, 33, 34, 35, 63} {
		roi.Set[tl] = true
	}
	data, err := EncodeROIPlane(plane, roi, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	dst := make([]float32, w*h)
	for i := range dst {
		dst[i] = -7 // sentinel: untouched tiles must keep it
	}
	if err := decodeROIPlane(dst, roi, nil, data); err != nil {
		t.Fatal(err)
	}
	var sumSq float64
	var n int
	for tl, keep := range roi.Set {
		x0, y0, x1, y1 := g.Bounds(tl)
		for y := y0; y < y1; y++ {
			for x := x0; x < x1; x++ {
				v := dst[y*w+x]
				if !keep {
					if v != -7 {
						t.Fatalf("non-ROI tile %d touched", tl)
					}
					continue
				}
				d := float64(v - plane[y*w+x])
				sumSq += d * d
				n++
			}
		}
	}
	if psnr := raster.PSNR(sumSq / float64(n)); psnr < 45 {
		t.Fatalf("ROI round-trip PSNR = %.1f dB", psnr)
	}
}

func TestROIPlaneEmptyROI(t *testing.T) {
	g := raster.MustTileGrid(64, 64, 16)
	roi := raster.NewTileMask(g)
	data, err := EncodeROIPlane(make([]float32, 64*64), roi, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if data != nil {
		t.Fatalf("empty ROI produced %d bytes", len(data))
	}
	// An absent band (an empty ROI's nil stream) leaves its plane as is.
	dst := raster.New(64, 64, raster.PlanetBands()[:1])
	dst.Plane(0)[0] = 0.5
	if err := DecodeROIFrame(container.Pack([][]byte{nil}), []*raster.TileMask{roi}, nil, dst, 1); err != nil {
		t.Fatal(err)
	}
	if dst.Plane(0)[0] != 0.5 {
		t.Fatal("absent band changed its plane")
	}
}

func TestROIPlaneMaskMismatchDetected(t *testing.T) {
	g := raster.MustTileGrid(64, 64, 16)
	plane := testPlane(32, 64, 64)
	roi := raster.NewTileMask(g)
	roi.Set[0], roi.Set[1], roi.Set[2] = true, true, true
	data, err := EncodeROIPlane(plane, roi, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	// Decoding with a different tile count must fail loudly.
	other := raster.NewTileMask(g)
	other.Set[0] = true
	if err := decodeROIPlane(make([]float32, 64*64), other, nil, data); err == nil {
		t.Fatal("expected mosaic-geometry mismatch error")
	}
}

func TestROIPlaneSingleTileAndFull(t *testing.T) {
	const w, h, tile = 64, 64, 16
	g := raster.MustTileGrid(w, h, tile)
	plane := testPlane(33, w, h)
	for _, count := range []int{1, g.NumTiles()} {
		roi := raster.NewTileMask(g)
		for i := 0; i < count; i++ {
			roi.Set[i] = true
		}
		data, err := EncodeROIPlane(plane, roi, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		dst := make([]float32, w*h)
		if err := decodeROIPlane(dst, roi, nil, data); err != nil {
			t.Fatal(err)
		}
		x0, y0, _, _ := g.Bounds(0)
		if d := dst[(y0+3)*w+x0+3] - plane[(y0+3)*w+x0+3]; d > 0.05 || d < -0.05 {
			t.Fatalf("count=%d tile 0 decoded badly: delta %v", count, d)
		}
	}
}

func TestROIBudgetAppliesToMosaic(t *testing.T) {
	const w, h, tile = 192, 192, 16
	g := raster.MustTileGrid(w, h, tile)
	plane := make([]float32, w*h)
	noise.New(34).FillFBM(plane, w, h, 8, 4)
	roi := raster.NewTileMask(g)
	for i := 0; i < g.NumTiles(); i += 3 {
		roi.Set[i] = true
	}
	opt := DefaultOptions()
	opt.BudgetBytes = 2048
	data, err := EncodeROIPlane(plane, roi, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) > 2048+192 {
		t.Fatalf("ROI stream %d bytes exceeds budget", len(data))
	}
}

func TestROIMaskBytes(t *testing.T) {
	g := raster.MustTileGrid(192, 192, 16) // 144 tiles -> 18 bytes
	if got := ROIMaskBytes(g); got != 18 {
		t.Fatalf("ROIMaskBytes = %d, want 18", got)
	}
}

// TestDecodeROIFrameSameAtAnyWorkerCount: the band pool writes the same
// image at one worker and at several, clamped to [0,1] and leaving each
// band's unmarked tiles alone, and a frame with two bad bands reports the
// lower one's error.
func TestDecodeROIFrameSameAtAnyWorkerCount(t *testing.T) {
	const w, h, tile, bands = 96, 64, 16, 5
	g := raster.MustTileGrid(w, h, tile)
	streams := make([][]byte, bands)
	rois := make([]*raster.TileMask, bands)
	for b := range streams {
		plane := testPlane(uint64(40+b), w, h)
		plane[0] = 1.5 // out of range: the decode must clamp it
		rois[b] = raster.NewTileMask(g)
		for tl := b % 3; tl < g.NumTiles(); tl += 2 + b%3 {
			rois[b].Set[tl] = true
		}
		if b == 2 {
			rois[b] = nil // no ROI: the band stays absent
			continue
		}
		var err error
		if streams[b], err = EncodeROIPlane(plane, rois[b], DefaultOptions()); err != nil {
			t.Fatal(err)
		}
	}
	frame := container.Pack(streams)
	decode := func(frame container.Codestream, parallelism int) (*raster.Image, error) {
		dst := raster.New(w, h, make([]raster.BandInfo, bands))
		for b := range dst.Pix {
			dst.Fill(b, -7) // sentinel: unmarked tiles must keep it
		}
		return dst, DecodeROIFrame(frame, rois, nil, dst, parallelism)
	}
	want, err := decode(frame, 1)
	if err != nil {
		t.Fatal(err)
	}
	for b := range want.Pix {
		for tl := 0; tl < g.NumTiles(); tl++ {
			x0, y0, _, _ := g.Bounds(tl)
			v := want.At(b, x0, y0)
			if marked := rois[b] != nil && rois[b].Set[tl]; marked != (v != -7) || v > 1 {
				t.Fatalf("band %d tile %d: corner sample %v (marked %v)", b, tl, v, marked)
			}
		}
	}
	for _, workers := range []int{2, 4} {
		got, err := decode(frame, workers)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want) {
			t.Fatalf("%d workers decoded a different image", workers)
		}
	}

	bad := slices.Clone(streams)
	bad[1], bad[3] = []byte("EPC1junk"), []byte("EPC1junk")
	for _, workers := range []int{1, 4} {
		_, err := decode(container.Pack(bad), workers)
		if err == nil || !strings.HasPrefix(err.Error(), "codec: band 1:") {
			t.Fatalf("%d workers: error %v, want band 1's", workers, err)
		}
	}
}
