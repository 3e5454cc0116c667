package sat

import (
	"testing"

	"earthplus/internal/noise"
	"earthplus/internal/raster"
)

// Property: ApplyTileUpdate must behave exactly like tile-granular
// splicing — after every update, masked tiles equal the update image,
// unmasked tiles keep their previous content, and the reference day
// advances. The test drives 24 rounds of pseudo-random updates against an
// independently maintained shadow image.

func propImage(src *noise.Source, stream int64, w, h int, bands []raster.BandInfo) *raster.Image {
	im := raster.New(w, h, bands)
	for b := range im.Pix {
		p := im.Plane(b)
		for i := range p {
			p[i] = float32(src.Uniform(stream*31+int64(b), int64(i)))
		}
	}
	return im
}

func TestApplyTileUpdateSplicesExactly(t *testing.T) {
	const w, h, tile = 32, 32, 8
	bands := raster.PlanetBands()
	grid := raster.MustTileGrid(w, h, tile)
	src := noise.New(424242)

	cache := NewRefCache()
	base := propImage(src, 1, w, h, bands)
	cache.Put(3, base.Clone(), 0)
	shadow := base.Clone()

	for round := 1; round <= 24; round++ {
		update := propImage(src, int64(round)+100, w, h, bands)
		perBand := make([]*raster.TileMask, len(bands))
		for b := range bands {
			// Band masks vary independently; some rounds leave bands nil
			// (no update for that band), matching PackUplink output.
			if src.Uniform(int64(round)*7+int64(b), 0) < 0.2 {
				continue
			}
			mask := raster.NewTileMask(grid)
			for tl := 0; tl < grid.NumTiles(); tl++ {
				mask.Set[tl] = src.Uniform(int64(round)*13+int64(b), int64(tl)) < 0.4
			}
			perBand[b] = mask
		}
		cache.ApplyTileUpdate(3, update, perBand, round)
		for b, mask := range perBand {
			if mask == nil {
				continue
			}
			for tl, set := range mask.Set {
				if set {
					raster.CopyTile(shadow, update, b, grid, tl)
				}
			}
		}
		ref, day := cache.Get(3)
		if ref == nil {
			t.Fatal("reference vanished")
		}
		if day != round {
			t.Fatalf("round %d: reference day %d", round, day)
		}
		if !ref.Image.Equal(shadow) {
			t.Fatalf("round %d: cached reference diverged from tile-spliced shadow", round)
		}
	}

	// A missing entry is created from the whole update, regardless of masks.
	update := propImage(src, 999, w, h, bands)
	empty := make([]*raster.TileMask, len(bands))
	cache.ApplyTileUpdate(7, update, empty, 5)
	if ref, day := cache.Get(7); ref == nil || day != 5 || !ref.Image.Equal(update) {
		t.Fatal("missing-entry update did not install the full image")
	}
	if cache.Len() != 2 {
		t.Fatalf("cache holds %d references, want 2", cache.Len())
	}
}

// TestApplyTileUpdateLeavesStoredImagesUntouched pins the store's one
// ownership rule: stored images are never mutated. A splice over every
// tile must leave the image Put installed and the image an earlier Visit
// returned bit-identical, since both may be shared with the ground's
// mirrors, other satellites' stores or a capture still being processed.
func TestApplyTileUpdateLeavesStoredImagesUntouched(t *testing.T) {
	const w, h = 16, 16
	bands := raster.PlanetBands()
	src := noise.New(5150)
	c := NewRefCache()
	put := propImage(src, 1, w, h, bands)
	c.Put(0, put, 1)
	ref, _ := c.Visit(0, 2)
	visited := ref.Image
	wantPut, wantVisited := put.Clone(), visited.Clone()

	update := propImage(src, 2, w, h, bands)
	all := raster.NewTileMask(raster.MustTileGrid(w, h, 8))
	all.SetAll()
	perBand := make([]*raster.TileMask, len(bands))
	for b := range perBand {
		perBand[b] = all
	}
	c.ApplyTileUpdate(0, update, perBand, 3)

	if got, day := c.Get(0); got == nil || day != 3 || !got.Image.Equal(update) {
		t.Fatal("a splice over every tile did not install the update")
	}
	if !put.Equal(wantPut) || !visited.Equal(wantVisited) {
		t.Fatal("ApplyTileUpdate wrote into a stored image")
	}
}

// Property: under a storage budget, any interleaving of visits, puts and
// tile updates leaves the cache (a) within budget, (b) reporting exactly
// the entries that disappeared as evicted, and (c) holding images equal to
// an independently maintained shadow for every surviving location.
func TestBoundedCacheInvariantsUnderChurn(t *testing.T) {
	const w, h = 16, 16
	bands := raster.PlanetBands()
	grid := raster.MustTileGrid(w, h, 8)
	src := noise.New(31337)
	// One 16x16x4 reference at 16 bits/sample is 2048 bytes; budget three.
	const budget = 3 * 2048

	for _, policy := range []Policy{PolicyLRU, PolicySchedule} {
		t.Run(string(policy), func(t *testing.T) {
			cache, err := NewBoundedRefCache(CacheConfig{
				BudgetBytes: budget,
				Policy:      policy,
				NextVisit:   func(loc, after int) int { return after + 1 + (loc*5)%7 },
			})
			if err != nil {
				t.Fatal(err)
			}
			shadow := map[int]*raster.Image{}
			evictedTotal := 0
			for round := 1; round <= 120; round++ {
				loc := int(src.Uniform(int64(round), 1) * 8)
				im := propImage(src, int64(round)+2000, w, h, bands)
				var evicted []int
				switch op := src.Uniform(int64(round), 2); {
				case op < 0.4:
					evicted = cache.Put(loc, im.Clone(), round)
					shadow[loc] = im.Clone()
				case op < 0.7:
					mask := raster.NewTileMask(grid)
					for tl := 0; tl < grid.NumTiles(); tl++ {
						mask.Set[tl] = src.Uniform(int64(round), int64(3+tl)) < 0.5
					}
					perBand := make([]*raster.TileMask, len(bands))
					for b := range perBand {
						perBand[b] = mask
					}
					evicted = cache.ApplyTileUpdate(loc, im, perBand, round)
					if sh := shadow[loc]; sh != nil {
						for b := range perBand {
							for tl, set := range mask.Set {
								if set {
									raster.CopyTile(sh, im, b, grid, tl)
								}
							}
						}
					} else {
						shadow[loc] = im.Clone()
					}
				default:
					got, _ := cache.Visit(loc, round)
					if (got == nil) != (shadow[loc] == nil) {
						t.Fatalf("round %d: visit miss=%v but shadow has=%v", round, got == nil, shadow[loc] != nil)
					}
				}
				for _, ev := range evicted {
					if shadow[ev] == nil {
						t.Fatalf("round %d: reported eviction of %d, which was not cached", round, ev)
					}
					delete(shadow, ev)
					evictedTotal++
				}
				if fp := cache.FootprintBytes(); fp > budget {
					t.Fatalf("round %d: footprint %d exceeds budget %d", round, fp, budget)
				}
				if cache.Len() != len(shadow) {
					t.Fatalf("round %d: cache holds %d entries, shadow %d", round, cache.Len(), len(shadow))
				}
				for l, sh := range shadow {
					ref, _ := cache.Get(l)
					if ref == nil {
						t.Fatalf("round %d: loc %d vanished without an eviction report", round, l)
					}
					if !ref.Image.Equal(sh) {
						t.Fatalf("round %d: loc %d diverged from shadow", round, l)
					}
				}
			}
			if evictedTotal == 0 {
				t.Fatal("churn never evicted; the property was not exercised")
			}
			ev, _ := cache.Stats()
			if int(ev) != evictedTotal {
				t.Fatalf("Stats evictions %d != observed %d", ev, evictedTotal)
			}
		})
	}
}
