package station

import (
	"testing"

	"earthplus/internal/cloud"
	"earthplus/internal/codec"
	"earthplus/internal/container"
	"earthplus/internal/link"
	"earthplus/internal/noise"
	"earthplus/internal/raster"
	"earthplus/internal/sat"
)

const (
	testW, testH, testTile = 64, 64, 16
	testDown               = 4
)

func testGround(t *testing.T, numLocs int) *Ground {
	t.Helper()
	bands := raster.PlanetBands()
	g, err := NewGround(Config{
		Bands:       bands,
		Grid:        raster.MustTileGrid(testW, testH, testTile),
		Downsample:  testDown,
		Accurate:    cloud.DefaultTemporal(bands),
		Storage:     sat.Storage{BPP: 6, Codec: codec.DefaultOptions()},
		MaxRefCloud: 0.05,
	}, numLocs)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// loadRef returns the content of a stored reference.
func loadRef(t testing.TB, ref *sat.Ref) *raster.Image {
	t.Helper()
	im, err := ref.Load()
	if err != nil {
		t.Fatal(err)
	}
	return im
}

func testImage(seed uint64) *raster.Image {
	im := raster.New(testW, testH, raster.PlanetBands())
	for b := 0; b < im.NumBands(); b++ {
		noise.New(seed+uint64(b)).FillFBM(im.Plane(b), testW, testH, 5, 3)
		for i, v := range im.Plane(b) {
			im.Plane(b)[i] = 0.1 + 0.7*v
		}
	}
	return im
}

func TestNewGroundValidation(t *testing.T) {
	bands := raster.PlanetBands()
	grid := raster.MustTileGrid(testW, testH, testTile)
	if _, err := NewGround(Config{Bands: bands, Grid: grid, Downsample: 5, Storage: sat.Storage{BPP: 1}}, 1); err == nil {
		t.Fatal("expected downsample error")
	}
	if _, err := NewGround(Config{Bands: bands, Grid: grid, Downsample: 4}, 1); err == nil {
		t.Fatal("expected Storage.BPP error")
	}
}

func TestSeedBootstrapInstallsEverything(t *testing.T) {
	g := testGround(t, 2)
	full := testImage(1)
	if _, err := g.SeedBootstrap(1, 10, full, []int{0, 1, 2}); err != nil {
		t.Fatal(err)
	}
	if g.Archive(1) == nil || g.Archive(0) != nil {
		t.Fatal("bootstrap archive wrong")
	}
	if g.BestRefDay(1) != 10 || g.BestRefDay(0) != -1 {
		t.Fatalf("BestRefDay = %d / %d", g.BestRefDay(1), g.BestRefDay(0))
	}
	for s := 0; s < 3; s++ {
		if g.MirrorRefDay(s, 1) != 10 {
			t.Fatalf("mirror %d day = %d", s, g.MirrorRefDay(s, 1))
		}
	}
	if g.MirrorRefDay(7, 1) != -1 {
		t.Fatal("unknown satellite mirror should be -1")
	}
	// Recon returns a defensive copy.
	rec := g.Recon(1)
	rec.Fill(0, 0)
	if g.Archive(1).At(0, 0, 0) == 0 && g.Archive(1).At(0, 1, 1) == 0 {
		t.Fatal("Recon aliases the archive")
	}
}

func TestApplyDownloadUpdatesArchiveTiles(t *testing.T) {
	g := testGround(t, 1)
	old := testImage(2)
	if _, err := g.SeedBootstrap(0, 0, old, nil); err != nil {
		t.Fatal(err)
	}
	// New content in tile 3 of band 0.
	grid := raster.MustTileGrid(testW, testH, testTile)
	newImg := old.Clone()
	x0, y0, x1, y1 := grid.Bounds(3)
	for y := y0; y < y1; y++ {
		for x := x0; x < x1; x++ {
			newImg.Set(0, x, y, 0.9)
		}
	}
	mask := raster.NewTileMask(grid)
	mask.Set[3] = true
	opts := codec.DefaultOptions()
	stream, err := codec.EncodeROIPlane(newImg.Plane(0), mask, opts)
	if err != nil {
		t.Fatal(err)
	}
	frame := container.Pack([][]byte{stream, nil, nil, nil})
	rois := []*raster.TileMask{mask, nil, nil, nil}
	if err := g.ApplyDownload(0, 5, frame, rois, nil); err != nil {
		t.Fatal(err)
	}
	got := g.Archive(0).At(0, x0+8, y0+8)
	if got < 0.85 || got > 0.95 {
		t.Fatalf("archive tile value = %v, want ~0.9", got)
	}
	// Untouched tile keeps old content.
	ox0, oy0, _, _ := grid.Bounds(0)
	if g.Archive(0).At(0, ox0+2, oy0+2) != old.At(0, ox0+2, oy0+2) {
		t.Fatal("non-ROI tile modified")
	}
}

func TestApplyDownloadRejectsTiles(t *testing.T) {
	g := testGround(t, 1)
	old := testImage(3)
	if _, err := g.SeedBootstrap(0, 0, old, nil); err != nil {
		t.Fatal(err)
	}
	grid := raster.MustTileGrid(testW, testH, testTile)
	newImg := old.Clone()
	for _, tile := range []int{2, 5} {
		x0, y0, x1, y1 := grid.Bounds(tile)
		for y := y0; y < y1; y++ {
			for x := x0; x < x1; x++ {
				newImg.Set(0, x, y, 0.95)
			}
		}
	}
	mask := raster.NewTileMask(grid)
	mask.Set[2], mask.Set[5] = true, true
	stream, err := codec.EncodeROIPlane(newImg.Plane(0), mask, codec.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	reject := raster.NewTileMask(grid)
	reject.Set[5] = true // pretend tile 5 is cloud-contaminated
	err = g.ApplyDownload(0, 5, container.Pack([][]byte{stream, nil, nil, nil}),
		[]*raster.TileMask{mask, nil, nil, nil}, reject)
	if err != nil {
		t.Fatal(err)
	}
	x2, y2, _, _ := grid.Bounds(2)
	x5, y5, _, _ := grid.Bounds(5)
	if v := g.Archive(0).At(0, x2+8, y2+8); v < 0.85 {
		t.Fatalf("accepted tile not applied: %v", v)
	}
	if v := g.Archive(0).At(0, x5+8, y5+8); v > 0.85 {
		t.Fatalf("rejected tile was applied: %v", v)
	}
}

func TestMaybePromoteGate(t *testing.T) {
	g := testGround(t, 1)
	if _, err := g.SeedBootstrap(0, 0, testImage(4), nil); err != nil {
		t.Fatal(err)
	}
	promoted, err := g.MaybePromote(0, 9, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if promoted || g.BestRefDay(0) != 0 {
		t.Fatal("cloudy capture promoted")
	}
	promoted, err = g.MaybePromote(0, 9, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if !promoted || g.BestRefDay(0) != 9 {
		t.Fatalf("clear capture not promoted: day=%d", g.BestRefDay(0))
	}
}

func TestPackUplinkDeltaAndBudget(t *testing.T) {
	g := testGround(t, 1)
	full := testImage(5)
	if _, err := g.SeedBootstrap(0, 0, full, []int{0}); err != nil {
		t.Fatal(err)
	}
	// No change: nothing to upload.
	ups, err := g.PackUplink(0, 1, []int{0}, link.NewMeter(0))
	if err != nil {
		t.Fatal(err)
	}
	if len(ups) != 0 {
		t.Fatalf("uploaded %d updates with no changes", len(ups))
	}
	// Change part of the archive, promote, and expect a delta upload.
	grid := raster.MustTileGrid(testW, testH, testTile)
	arch := g.Archive(0)
	x0, y0, x1, y1 := grid.Bounds(6)
	for y := y0; y < y1; y++ {
		for x := x0; x < x1; x++ {
			arch.Set(0, x, y, 0.05)
		}
	}
	if _, err := g.MaybePromote(0, 7, 0); err != nil {
		t.Fatal(err)
	}
	ups, err = g.PackUplink(0, 7, []int{0}, link.NewMeter(0))
	if err != nil {
		t.Fatal(err)
	}
	if len(ups) != 1 {
		t.Fatalf("expected 1 update, got %d", len(ups))
	}
	u := ups[0]
	if u.Day != 7 || u.Bytes <= 0 {
		t.Fatalf("update = %+v", u)
	}
	// The delta should cover far fewer tiles than a full upload: only
	// band 0's changed low-res region.
	if c := u.PerBand[0].Count(); c == 0 || c > 4 {
		t.Fatalf("band 0 delta covers %d low-res tiles", c)
	}
	for b := 1; b < 4; b++ {
		if u.PerBand[b].Count() != 0 {
			t.Fatalf("band %d uploaded despite no change", b)
		}
	}
	if g.MirrorRefDay(0, 0) != 7 {
		t.Fatalf("mirror day = %d", g.MirrorRefDay(0, 0))
	}
	// The decoded update must carry the new content.
	lowX := x0 / testDown
	lowY := y0 / testDown
	if v := u.Decoded.At(0, lowX+1, lowY+1); v > 0.15 {
		t.Fatalf("decoded reference tile = %v, want ~0.05", v)
	}

	// A starved budget blocks the upload entirely.
	for y := y0; y < y1; y++ {
		for x := x0; x < x1; x++ {
			arch.Set(1, x, y, 0.9)
		}
	}
	if _, err := g.MaybePromote(0, 9, 0); err != nil {
		t.Fatal(err)
	}
	ups, err = g.PackUplink(0, 9, []int{0}, link.NewMeter(10))
	if err != nil {
		t.Fatal(err)
	}
	if len(ups) != 0 {
		t.Fatal("starved budget still uploaded")
	}
}

func TestReassessCoverageUsesArchive(t *testing.T) {
	g := testGround(t, 1)
	base := testImage(6)
	if _, err := g.SeedBootstrap(0, 0, base, nil); err != nil {
		t.Fatal(err)
	}
	// Clear capture identical to archive: coverage ~0.
	if cov := g.ReassessCoverage(base, 0); cov > 0.02 {
		t.Fatalf("identical capture reassessed at %.3f coverage", cov)
	}
	// Paint a bright+cold blob: should read as cloud.
	cloudy := base.Clone()
	for y := 10; y < 30; y++ {
		for x := 10; x < 30; x++ {
			for b := 0; b < 3; b++ {
				cloudy.Set(b, x, y, 0.93)
			}
			cloudy.Set(3, x, y, 0.05)
		}
	}
	if cov := g.ReassessCoverage(cloudy, 0); cov < 0.05 {
		t.Fatalf("cloud blob reassessed at %.3f coverage", cov)
	}
}

func TestRefRawBytes(t *testing.T) {
	g := testGround(t, 1)
	if got := g.RefRawBytes(); got != int64(testW*testH*4*2) {
		t.Fatalf("RefRawBytes = %d", got)
	}
}
