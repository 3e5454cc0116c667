package station

import (
	"testing"

	"earthplus/internal/cloud"
	"earthplus/internal/codec"
	"earthplus/internal/link"
	"earthplus/internal/noise"
	"earthplus/internal/raster"
	"earthplus/internal/sat"
)

// testGroundCompressed is testGround with a compressed Storage: the
// mirrors model satellites whose reference stores hold storage-codec
// frames.
func testGroundCompressed(t *testing.T, numLocs int) *Ground {
	t.Helper()
	bands := raster.PlanetBands()
	g, err := NewGround(Config{
		Bands:       bands,
		Grid:        raster.MustTileGrid(testW, testH, testTile),
		Downsample:  testDown,
		Accurate:    cloud.DefaultTemporal(bands),
		Storage:     sat.Storage{Compress: true, BPP: 6, Codec: codec.DefaultOptions()},
		MaxRefCloud: 0.05,
	}, numLocs)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// compressedTestCache builds the on-board store matching
// testGroundCompressed's storage codec.
func compressedTestCache(t *testing.T, budget int64) *sat.RefCache {
	t.Helper()
	cache, err := sat.NewBoundedRefCache(sat.CacheConfig{
		BudgetBytes: budget,
		Storage:     sat.Storage{Compress: true, BPP: 6, Codec: codec.DefaultOptions()},
	})
	if err != nil {
		t.Fatal(err)
	}
	return cache
}

// reseedScenario seeds a 3-location ground, advances every location's
// reference by one mutated day, and invalidates satellite 0's mirror of
// loc 1 — the state PackUplink sees after an on-board eviction: one
// pending re-seed competing with two routine delta updates.
func reseedScenario(t *testing.T) *Ground {
	t.Helper()
	g := testGround(t, 3)
	grid := raster.MustTileGrid(testW, testH, testTile)
	src := noise.New(5150)
	for loc := 0; loc < 3; loc++ {
		full := testImage(uint64(600 + loc))
		if _, err := g.SeedBootstrap(loc, 0, full, []int{0}); err != nil {
			t.Fatal(err)
		}
		applyFull(t, g, loc, 1, mutateTiles(src, loc+1, full, grid, 2))
	}
	g.InvalidateMirror(0, 1)
	return g
}

// TestPackUplinkReseedsDrainFirst pins the two-class scheduler: a pending
// re-seed of an evicted location drains BEFORE the delta freshness
// updates of locations the satellite still holds, even when the schedule
// order lists the delta locations first — under a scarce budget, plain
// schedule order used to spend the uplink on routine deltas and starve
// exactly the location that just went to MISS.
func TestPackUplinkReseedsDrainFirst(t *testing.T) {
	locs := []int{0, 1, 2} // schedule order: delta locs 0 and 2 surround the evicted loc 1

	// Unconstrained packing establishes each update's true cost and that
	// re-seeds lead the returned schedule.
	rich := reseedScenario(t)
	meter := link.NewMeter(0)
	updates, err := rich.PackUplink(0, 2, locs, meter)
	if err != nil {
		t.Fatal(err)
	}
	if len(updates) != 3 {
		t.Fatalf("unconstrained pack shipped %d updates, want 3", len(updates))
	}
	if updates[0].Loc != 1 {
		t.Fatalf("re-seed of loc 1 did not drain first: order %v",
			[]int{updates[0].Loc, updates[1].Loc, updates[2].Loc})
	}
	for b, m := range updates[0].PerBand {
		if m.Count() != m.Grid.NumTiles() {
			t.Fatalf("re-seed band %d carries %d/%d tiles; want full", b, m.Count(), m.Grid.NumTiles())
		}
	}
	reseedBytes := updates[0].Bytes

	// With budget for ONLY the re-seed, the starvation-prone case: the
	// evicted location must still get its full reference, and the meter
	// must hold.
	scarce := reseedScenario(t)
	meter = link.NewMeter(reseedBytes)
	updates, err = scarce.PackUplink(0, 2, locs, meter)
	if err != nil {
		t.Fatal(err)
	}
	if meter.Used() > reseedBytes {
		t.Fatalf("uplink meter exceeded: %d > %d", meter.Used(), reseedBytes)
	}
	var reseeded bool
	for _, u := range updates {
		if u.Loc == 1 {
			reseeded = true
			for b, m := range u.PerBand {
				if m.Count() != m.Grid.NumTiles() {
					t.Fatalf("scarce re-seed band %d trimmed to %d/%d tiles", b, m.Count(), m.Grid.NumTiles())
				}
			}
		}
	}
	if !reseeded {
		t.Fatal("scarce uplink starved the re-seed of the missed location")
	}
	if d := scarce.MirrorRefDay(0, 1); d != 1 {
		t.Fatalf("re-seeded mirror day %d, want 1", d)
	}
}

// TestCompressedReseedCycleCoherent drives the full miss→re-seed→hit
// cycle of a COMPRESSED on-board store against the ground's mirror
// bookkeeping: a 2-entry budget over 3 locations thrashes continuously,
// updates install either by routing the shipped storage frame
// (Install) or by tile-splicing + re-encode (ApplyTileUpdate), and after
// every cycle each mirrored location's store entry must DECODE
// byte-identical to the ground's mirror — the acceptance property of
// compressed re-seeding.
func TestCompressedReseedCycleCoherent(t *testing.T) {
	const numLocs, satID = 3, 0
	g := testGroundCompressed(t, numLocs)
	grid := raster.MustTileGrid(testW, testH, testTile)
	src := noise.New(31173)

	state := make([]*raster.Image, numLocs)
	lows := make([]*raster.Image, numLocs)
	var entryBytes int64
	for loc := 0; loc < numLocs; loc++ {
		full := testImage(uint64(800 + loc))
		if _, err := g.SeedBootstrap(loc, 0, full, []int{satID}); err != nil {
			t.Fatal(err)
		}
		state[loc] = full
		low, err := full.Downsample(testDown)
		if err != nil {
			t.Fatal(err)
		}
		lows[loc] = low
		if entryBytes == 0 {
			ref, err := g.storage.Hold(low)
			if err != nil {
				t.Fatal(err)
			}
			entryBytes = int64(len(ref.Frame))
		}
	}
	cache := compressedTestCache(t, 2*entryBytes)
	invalidate := func(evicted []int) {
		for _, loc := range evicted {
			g.InvalidateMirror(satID, loc)
		}
	}
	for loc := 0; loc < numLocs; loc++ {
		// The system bootstraps the store with the PRE-codec seed; the
		// store applies the storage codec the mirror already models.
		invalidate(cache.Put(loc, lows[loc].Clone(), 0))
	}

	locs := []int{0, 1, 2}
	reseeds, hitsAfterMiss := 0, 0
	missed := make([]bool, numLocs)
	for day := 1; day <= 14; day++ {
		for loc := 0; loc < numLocs; loc++ {
			state[loc] = mutateTiles(src, day*numLocs+loc, state[loc], grid, 2)
			applyFull(t, g, loc, day, state[loc])
			if src.Uniform(int64(day), int64(loc)) < 0.7 {
				if ref := cache.Visit(loc, day); ref == nil {
					missed[loc] = true
				} else if missed[loc] {
					// A hit on a previously missed location: the cycle
					// closed, and the decoded content must match the
					// ground's belief exactly.
					hitsAfterMiss++
					if mirror := g.MirrorImage(satID, loc); mirror == nil || !ref.Image.Equal(mirror) {
						t.Fatalf("day %d loc %d: post-re-seed decode diverged from mirror", day, loc)
					}
					missed[loc] = false
				}
			}
		}
		heldAtPack := make([]bool, numLocs)
		for loc := 0; loc < numLocs; loc++ {
			heldAtPack[loc] = g.MirrorRefDay(satID, loc) != -1
		}
		updates, err := g.PackUplink(satID, day, locs, link.NewMeter(0))
		if err != nil {
			t.Fatal(err)
		}
		for i, u := range updates {
			if u.Ref.Frame == nil {
				t.Fatalf("day %d loc %d: compressed ground shipped no storage frame", day, u.Loc)
			}
			if !heldAtPack[u.Loc] {
				reseeds++
				for b, m := range u.PerBand {
					if m.Count() != m.Grid.NumTiles() {
						t.Fatalf("day %d loc %d: re-seed band %d partial (%d/%d tiles)",
							day, u.Loc, b, m.Count(), m.Grid.NumTiles())
					}
				}
			}
			// Exercise both install paths: frame routing and the splice +
			// re-encode path must land in identical store states.
			if i%2 == 0 {
				invalidate(cache.Install(u.Loc, u.Ref, u.Day))
			} else {
				invalidate(cache.ApplyTileUpdate(u.Loc, u.Decoded, u.PerBand, u.Day))
			}
		}
		for loc := 0; loc < numLocs; loc++ {
			mirror := g.MirrorImage(satID, loc)
			if mirror == nil {
				continue
			}
			ref := cache.Get(loc)
			if ref == nil {
				t.Fatalf("day %d loc %d: ground mirrors a reference the satellite does not hold", day, loc)
			}
			if !ref.Image.Equal(mirror) {
				t.Fatalf("day %d loc %d: compressed store decode diverged from ground mirror", day, loc)
			}
			if ref.Day != g.MirrorRefDay(satID, loc) {
				t.Fatalf("day %d loc %d: reference day %d, mirror day %d", day, loc, ref.Day, g.MirrorRefDay(satID, loc))
			}
		}
	}
	if reseeds == 0 || hitsAfterMiss == 0 {
		t.Fatalf("property not exercised: %d re-seeds, %d hits after miss", reseeds, hitsAfterMiss)
	}
	if cache.Decodes() == 0 {
		t.Fatal("compressed store never decoded a frame")
	}
}
