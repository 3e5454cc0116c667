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

// The tiled uplink tests need a reference LARGER than one 64px codec tile
// at detection resolution — otherwise every splice trivially touches the
// whole frame — so they run their own geometry: 512px full resolution,
// downsample 2, i.e. a 256x256 reference spanning a 4x4 codec-tile grid.
const (
	tiledTestW, tiledTestH, tiledTestTile = 512, 512, 32
	tiledTestDown                         = 2
)

// tiledOpts is the storage-codec configuration of the tiled-profile
// uplink tests: the tiled (EPT1) codestream on both ground and store.
func tiledOpts() codec.Options {
	o := codec.DefaultOptions()
	o.Tiled = true
	return o
}

func testGroundTiled(t *testing.T, numLocs int) *Ground {
	t.Helper()
	bands := raster.PlanetBands()
	g, err := NewGround(Config{
		Bands:       bands,
		Grid:        raster.MustTileGrid(tiledTestW, tiledTestH, tiledTestTile),
		Downsample:  tiledTestDown,
		Accurate:    cloud.DefaultTemporal(bands),
		Storage:     sat.Storage{Compress: true, BPP: 6, Codec: tiledOpts()},
		MaxRefCloud: 0.05,
	}, numLocs)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func tiledTestCache(t *testing.T, budget int64) *sat.RefCache {
	t.Helper()
	cache, err := sat.NewBoundedRefCache(sat.CacheConfig{
		BudgetBytes: budget,
		Storage:     sat.Storage{Compress: true, BPP: 6, Codec: tiledOpts()},
	})
	if err != nil {
		t.Fatal(err)
	}
	return cache
}

func tiledTestImage(seed uint64) *raster.Image {
	im := raster.New(tiledTestW, tiledTestH, raster.PlanetBands())
	for b := 0; b < im.NumBands(); b++ {
		noise.New(seed+uint64(b)).FillFBM(im.Plane(b), tiledTestW, tiledTestH, 5, 3)
		for i, v := range im.Plane(b) {
			im.Plane(b)[i] = 0.1 + 0.7*v
		}
	}
	return im
}

// tiledApplyFull is applyFull at the tiled tests' geometry.
func tiledApplyFull(t *testing.T, g *Ground, loc, day int, im *raster.Image) {
	t.Helper()
	grid := raster.MustTileGrid(tiledTestW, tiledTestH, tiledTestTile)
	all := raster.NewTileMask(grid)
	all.SetAll()
	streams := make([][]byte, im.NumBands())
	rois := make([]*raster.TileMask, im.NumBands())
	opts := codec.DefaultOptions()
	opts.BudgetBytes = 0 // full quality: the archive should track im closely
	for b := 0; b < im.NumBands(); b++ {
		data, err := codec.EncodeROIPlane(im.Plane(b), all, opts)
		if err != nil {
			t.Fatal(err)
		}
		streams[b], rois[b] = data, all
	}
	if err := g.ApplyDownload(loc, day, container.Pack(streams), rois, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := g.MaybePromote(loc, day, 0); err != nil {
		t.Fatal(err)
	}
}

// TestTiledCompressedUplinkCoherent drives the compressed re-seed cycle
// with the TILED storage profile: delta updates splice the mirror frame
// per-tile (sat.Storage.Update) on the ground and on board, and both
// install routes — routing the shipped spliced frame (Install) and
// splicing locally (ApplyTileUpdate) — must leave the store decoding
// byte-identical to the ground's mirror after every cycle. It also pins
// that the splice really is per-tile: the ground re-encodes strictly
// fewer codec tiles than whole-frame re-encoding would.
func TestTiledCompressedUplinkCoherent(t *testing.T) {
	const numLocs, satID = 2, 0
	g := testGroundTiled(t, numLocs)
	grid := raster.MustTileGrid(tiledTestW, tiledTestH, tiledTestTile)
	src := noise.New(40917)

	state := make([]*raster.Image, numLocs)
	for loc := 0; loc < numLocs; loc++ {
		full := tiledTestImage(uint64(900 + loc))
		if _, err := g.SeedBootstrap(loc, 0, full, []int{satID}); err != nil {
			t.Fatal(err)
		}
		state[loc] = full
	}
	cache := tiledTestCache(t, 0) // unbounded: this test pins coherence, not eviction
	for loc := 0; loc < numLocs; loc++ {
		low, err := state[loc].Downsample(tiledTestDown)
		if err != nil {
			t.Fatal(err)
		}
		cache.Put(loc, low, 0)
	}

	locs := []int{0, 1}
	var updates int
	for day := 1; day <= 4; day++ {
		for loc := 0; loc < numLocs; loc++ {
			state[loc] = mutateTiles(src, day*numLocs+loc, state[loc], grid, 2)
			tiledApplyFull(t, g, loc, day, state[loc])
		}
		packed, err := g.PackUplink(satID, day, locs, link.NewMeter(0))
		if err != nil {
			t.Fatal(err)
		}
		for i, u := range packed {
			if !u.Ref.Frame.Tiled() {
				t.Fatalf("day %d loc %d: tiled ground shipped a non-tiled storage frame", day, u.Loc)
			}
			if i%2 == 0 {
				cache.Install(u.Loc, u.Ref, u.Day)
			} else {
				cache.ApplyTileUpdate(u.Loc, u.Decoded, u.PerBand, u.Day)
			}
			updates++
		}
		for loc := 0; loc < numLocs; loc++ {
			mirror := g.MirrorImage(satID, loc)
			if mirror == nil {
				continue
			}
			ref, _ := cache.Get(loc)
			if ref == nil || !loadRef(t, ref).Equal(mirror) {
				t.Fatalf("day %d loc %d: tiled store decode diverged from ground mirror", day, loc)
			}
		}
	}
	if updates == 0 {
		t.Fatal("property not exercised: no updates packed")
	}
	re, total := g.SpliceTileStats()
	if total == 0 {
		t.Fatal("tiled ground never spliced a mirror frame")
	}
	if re >= total {
		t.Fatalf("splice re-encoded %d of %d tiles; per-tile splice saved nothing", re, total)
	}
}

// TestTiledSpliceMatchesWholeReencodePath pins the route equivalence
// directly: after the same deltas, a store that spliced locally and a
// store that installed the ground's shipped frame hold references that
// decode identically — sat.Storage.Update is one shared function, so the
// mirrors cannot drift between the two install routes.
func TestTiledSpliceMatchesWholeReencodePath(t *testing.T) {
	const satID = 0
	g := testGroundTiled(t, 1)
	grid := raster.MustTileGrid(tiledTestW, tiledTestH, tiledTestTile)
	src := noise.New(2761)

	full := tiledTestImage(77)
	if _, err := g.SeedBootstrap(0, 0, full, []int{satID}); err != nil {
		t.Fatal(err)
	}
	low, err := full.Downsample(tiledTestDown)
	if err != nil {
		t.Fatal(err)
	}
	viaFrame := tiledTestCache(t, 0)
	viaSplice := tiledTestCache(t, 0)
	viaFrame.Put(0, low.Clone(), 0)
	viaSplice.Put(0, low.Clone(), 0)

	for day := 1; day <= 3; day++ {
		full = mutateTiles(src, day, full, grid, 2)
		tiledApplyFull(t, g, 0, day, full)
		packed, err := g.PackUplink(satID, day, []int{0}, link.NewMeter(0))
		if err != nil {
			t.Fatal(err)
		}
		if len(packed) != 1 {
			t.Fatalf("day %d: packed %d updates, want 1", day, len(packed))
		}
		u := packed[0]
		viaFrame.Install(u.Loc, u.Ref, u.Day)
		viaSplice.ApplyTileUpdate(u.Loc, u.Decoded, u.PerBand, u.Day)
		a, _ := viaFrame.Get(0)
		b, _ := viaSplice.Get(0)
		if a == nil || b == nil || !loadRef(t, a).Equal(loadRef(t, b)) {
			t.Fatalf("day %d: Install and ApplyTileUpdate routes diverged", day)
		}
	}
}
