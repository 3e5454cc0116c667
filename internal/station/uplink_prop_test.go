package station

import (
	"testing"

	"earthplus/internal/codec"
	"earthplus/internal/container"
	"earthplus/internal/link"
	"earthplus/internal/noise"
	"earthplus/internal/raster"
	"earthplus/internal/sat"
)

// Property test for reference-upload packing: across rounds of archive
// churn, (a) PackUplink never consumes more than the day's uplink budget,
// and (b) applying each shipped update's tile masks on board (the
// satellite's RefCache) reproduces the ground's mirror of that satellite
// exactly — the invariant delta-encoded uplinks depend on (§4.3).

// mutateTiles overwrites n pseudo-random tiles of every band with fresh
// content and returns the changed image.
func mutateTiles(src *noise.Source, round int, base *raster.Image, grid raster.TileGrid, n int) *raster.Image {
	out := base.Clone()
	for k := 0; k < n; k++ {
		tl := int(src.Uniform(int64(round), int64(k)) * float64(grid.NumTiles()))
		if tl >= grid.NumTiles() {
			tl = grid.NumTiles() - 1
		}
		x0, y0, x1, y1 := grid.Bounds(tl)
		for b := 0; b < out.NumBands(); b++ {
			v := float32(0.1 + 0.8*src.Uniform(int64(round)*17+int64(b), int64(k)))
			for y := y0; y < y1; y++ {
				for x := x0; x < x1; x++ {
					out.Set(b, x, y, v)
				}
			}
		}
	}
	return out
}

// applyFull pushes an image into the archive through the public download
// path (all tiles in the ROI) and promotes it to the reference.
func applyFull(t *testing.T, g *Ground, loc, day int, im *raster.Image) {
	t.Helper()
	grid := raster.MustTileGrid(testW, testH, testTile)
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

func TestPackUplinkBudgetAndMirrorReproduction(t *testing.T) {
	const numLocs = 2
	g := testGround(t, numLocs)
	grid := raster.MustTileGrid(testW, testH, testTile)
	src := noise.New(777)

	sats := []int{0, 1}
	// Satellite 1 lives under a tight budget that forces the trimming and
	// skipping paths; satellite 0 is unconstrained.
	budgets := map[int]int64{0: 0, 1: 700}
	caches := map[int]*sat.RefCache{}
	state := make([]*raster.Image, numLocs)
	for loc := 0; loc < numLocs; loc++ {
		full := testImage(uint64(50 + loc))
		if _, err := g.SeedBootstrap(loc, 0, full, sats); err != nil {
			t.Fatal(err)
		}
		state[loc] = full
	}
	for _, s := range sats {
		caches[s] = sat.NewRefCache()
		for loc := 0; loc < numLocs; loc++ {
			caches[s].Put(loc, g.MirrorImage(s, loc), 0)
		}
	}

	locs := []int{0, 1}
	for day := 1; day <= 10; day++ {
		for loc := 0; loc < numLocs; loc++ {
			state[loc] = mutateTiles(src, day*numLocs+loc, state[loc], grid, 2)
			applyFull(t, g, loc, day, state[loc])
		}
		for _, s := range sats {
			budget := budgets[s]
			meter := link.NewMeter(budget)
			updates, err := g.PackUplink(s, day, locs, meter)
			if err != nil {
				t.Fatal(err)
			}
			var shipped int64
			for _, u := range updates {
				shipped += u.Bytes
			}
			if shipped != meter.Used() {
				t.Fatalf("day %d sat %d: shipped %d bytes but meter used %d", day, s, shipped, meter.Used())
			}
			if budget > 0 && shipped > budget {
				t.Fatalf("day %d sat %d: uplink budget exceeded: %d > %d", day, s, shipped, budget)
			}
			for _, u := range updates {
				caches[s].ApplyTileUpdate(u.Loc, u.Decoded, u.PerBand, u.Day)
				ref, refDay := caches[s].Get(u.Loc)
				mirror := g.MirrorImage(s, u.Loc)
				if mirror == nil {
					t.Fatalf("day %d sat %d loc %d: update shipped but no mirror", day, s, u.Loc)
				}
				if !loadRef(t, ref).Equal(mirror) {
					t.Fatalf("day %d sat %d loc %d: on-board reference diverged from ground mirror", day, s, u.Loc)
				}
				if refDay != g.MirrorRefDay(s, u.Loc) {
					t.Fatalf("day %d sat %d loc %d: reference day %d, mirror day %d", day, s, u.Loc, refDay, g.MirrorRefDay(s, u.Loc))
				}
			}
		}
	}

	// The unconstrained satellite must have converged to the freshest
	// reference for every location.
	for loc := 0; loc < numLocs; loc++ {
		if _, d := caches[0].Get(loc); d != 10 {
			t.Fatalf("unconstrained satellite stuck at day %d for loc %d", d, loc)
		}
	}
}

// Property: a capacity-bounded on-board cache stays coherent with the
// ground's mirror bookkeeping through any interleaving of visits,
// evictions and uplink cycles. The invariant is directional: whenever the
// ground holds a mirror for (sat, loc), the satellite's reference exists
// and is byte-equal to it — deltas are only ever encoded against state the
// satellite verifiably holds. The satellite MAY hold a reference the
// ground no longer mirrors (an update applied right after an intra-cycle
// eviction invalidated its slot); that is conservative — the next cycle
// re-sends in full — never incoherent, because RefUpdate.Decoded is always
// the complete post-update reference, so applying it to a missing entry
// installs correct content. Locations whose mirror was already nil at
// PACK time must be re-seeded with full (every-tile) updates. With 3
// locations and a 2-reference budget the store thrashes continuously, so
// all paths run many times over.
func TestEvictionKeepsGroundMirrorCoherent(t *testing.T) {
	const numLocs, satID = 3, 0
	g := testGround(t, numLocs)
	grid := raster.MustTileGrid(testW, testH, testTile)
	src := noise.New(90210)

	// One low-res reference is (64/4)*(64/4)*4 samples at 16 bits = 2048
	// bytes; the budget fits two of the three locations.
	lowRefBytes := int64(testW/testDown) * int64(testH/testDown) * 4 * 2
	cache, err := sat.NewBoundedRefCache(sat.CacheConfig{BudgetBytes: 2 * lowRefBytes})
	if err != nil {
		t.Fatal(err)
	}
	invalidate := func(evicted []int) {
		for _, loc := range evicted {
			g.InvalidateMirror(satID, loc)
		}
	}

	state := make([]*raster.Image, numLocs)
	for loc := 0; loc < numLocs; loc++ {
		full := testImage(uint64(300 + loc))
		if _, err := g.SeedBootstrap(loc, 0, full, []int{satID}); err != nil {
			t.Fatal(err)
		}
		state[loc] = full
		invalidate(cache.Put(loc, g.MirrorImage(satID, loc), 0))
	}

	locs := []int{0, 1, 2}
	evictionsSeen, reseedsSeen := 0, 0
	for day := 1; day <= 14; day++ {
		// Ground-side churn plus on-board visits for a pseudo-random
		// subset of locations.
		for loc := 0; loc < numLocs; loc++ {
			state[loc] = mutateTiles(src, day*numLocs+loc, state[loc], grid, 2)
			applyFull(t, g, loc, day, state[loc])
			if src.Uniform(int64(day), int64(loc)) < 0.6 {
				cache.Visit(loc, day)
			}
		}
		// Snapshot which locations the ground believed the satellite held
		// BEFORE packing: those are delta candidates, the rest must ship
		// as full re-seeds.
		heldAtPack := make([]bool, numLocs)
		for loc := 0; loc < numLocs; loc++ {
			heldAtPack[loc] = g.MirrorRefDay(satID, loc) != -1
		}
		updates, err := g.PackUplink(satID, day, locs, link.NewMeter(0))
		if err != nil {
			t.Fatal(err)
		}
		for _, u := range updates {
			if !heldAtPack[u.Loc] {
				// Re-seed of an evicted reference: the ground must ship
				// every tile, not a delta against state the satellite no
				// longer holds.
				reseedsSeen++
				for b, m := range u.PerBand {
					if m.Count() != m.Grid.NumTiles() {
						t.Fatalf("day %d loc %d: re-seed band %d carries %d/%d tiles; want a full update",
							day, u.Loc, b, m.Count(), m.Grid.NumTiles())
					}
				}
			}
			evicted := cache.ApplyTileUpdate(u.Loc, u.Decoded, u.PerBand, u.Day)
			invalidate(evicted)
			evictionsSeen += len(evicted)
			for _, ev := range evicted {
				if d := g.MirrorRefDay(satID, ev); d != -1 {
					t.Fatalf("day %d: evicted loc %d still mirrored at day %d", day, ev, d)
				}
			}
		}
		// Replay invariant: wherever the ground holds a mirror, the
		// on-board reference exists and reproduces it exactly.
		for loc := 0; loc < numLocs; loc++ {
			mirror := g.MirrorImage(satID, loc)
			if mirror == nil {
				continue
			}
			ref, refDay := cache.Get(loc)
			if ref == nil {
				t.Fatalf("day %d loc %d: ground mirrors a reference the satellite does not hold", day, loc)
			}
			if !loadRef(t, ref).Equal(mirror) {
				t.Fatalf("day %d loc %d: on-board reference diverged from ground mirror", day, loc)
			}
			if refDay != g.MirrorRefDay(satID, loc) {
				t.Fatalf("day %d loc %d: reference day %d, mirror day %d", day, loc, refDay, g.MirrorRefDay(satID, loc))
			}
		}
	}
	if evictionsSeen == 0 || reseedsSeen == 0 {
		t.Fatalf("property not exercised: %d evictions, %d re-seeds", evictionsSeen, reseedsSeen)
	}
}

func TestAccurateMaskAndReassess(t *testing.T) {
	g := testGround(t, 1)
	full := testImage(9)
	if _, err := g.SeedBootstrap(0, 0, full, nil); err != nil {
		t.Fatal(err)
	}
	// Against its own archive content the accurate detector must find an
	// essentially clear image; a brightened+cooled one must read cloudier.
	if cov := g.ReassessCoverage(full, 0); cov > 0.05 {
		t.Fatalf("clear capture reassessed at %.0f%% coverage", cov*100)
	}
	// A cloud signature the illumination fit cannot explain away: one half
	// of the frame brightens in the visible bands and cools in the IR.
	cloudy := full.Clone()
	ir := raster.InfraredBand(cloudy.Bands)
	for y := 0; y < cloudy.Height; y++ {
		for x := 0; x < cloudy.Width/2; x++ {
			for b := 0; b < cloudy.NumBands(); b++ {
				if b == ir {
					cloudy.Set(b, x, y, cloudy.At(b, x, y)-0.3)
				} else {
					cloudy.Set(b, x, y, cloudy.At(b, x, y)+0.4)
				}
			}
		}
	}
	cloudy.Clamp()
	mask := g.AccurateMask(cloudy, 0)
	if mask.Coverage() <= g.ReassessCoverage(full, 0) {
		t.Fatal("brightened capture not detected as cloudier")
	}
}
