package sat

import (
	"testing"

	"earthplus/internal/codec"
	"earthplus/internal/noise"
	"earthplus/internal/raster"
)

// The compressed reference store's contract: an entry's content is ALWAYS
// decode(frame) of the storage codec — never the raw image that was
// installed — its accounted footprint is the frame's real byte count, and
// every visit decodes the frame afresh.

const testStoreBPP = 6.0

func compressedConfig() CacheConfig {
	return CacheConfig{
		Compress: true,
		StoreBPP: testStoreBPP,
		Codec:    codec.DefaultOptions(),
	}
}

// storedImage independently applies the storage codec — the content a
// compressed cache must reproduce for an installed image.
func storedImage(t *testing.T, im *raster.Image) *raster.Image {
	t.Helper()
	frame, err := EncodeStoredRef(im, testStoreBPP, codec.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	out, err := DecodeStoredRef(frame, im.Width, im.Height, im.Bands)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestCompressedCacheDecodesStorageCodecContent(t *testing.T) {
	const w, h = 32, 32
	bands := raster.PlanetBands()
	src := noise.New(7001)
	cache, err := NewBoundedRefCache(compressedConfig())
	if err != nil {
		t.Fatal(err)
	}
	im := propImage(src, 1, w, h, bands)
	want := storedImage(t, im)

	cache.Put(0, im.Clone(), 3)
	got := cache.Visit(0, 4)
	if got == nil || got.Day != 3 {
		t.Fatalf("visit returned %+v, want day 3", got)
	}
	if !got.Image.Equal(want) {
		t.Fatal("compressed entry did not decode to the storage codec's output")
	}
	if got.Image.Equal(im) {
		t.Fatal("lossy storage codec returned the raw install image; the test is vacuous")
	}

	// Footprint is the encoded frame, several times below the raw rate.
	raw := cache.StorageBytes(RawBitsPerSample)
	fp := cache.FootprintBytes()
	if fp <= 0 || fp*2 >= raw {
		t.Fatalf("compressed footprint %d not well below raw-rate %d", fp, raw)
	}
	if cache.Len() != 1 {
		t.Fatalf("Len = %d", cache.Len())
	}
}

func TestCompressedPutFrameMatchesPut(t *testing.T) {
	const w, h = 32, 32
	bands := raster.PlanetBands()
	src := noise.New(7002)
	im := propImage(src, 9, w, h, bands)

	viaPut, err := NewBoundedRefCache(compressedConfig())
	if err != nil {
		t.Fatal(err)
	}
	viaPut.Put(5, im.Clone(), 2)

	frame, err := EncodeStoredRef(im, testStoreBPP, codec.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	viaFrame, err := NewBoundedRefCache(compressedConfig())
	if err != nil {
		t.Fatal(err)
	}
	viaFrame.PutFrame(5, frame, im, 2)

	a, b := viaPut.Visit(5, 3), viaFrame.Visit(5, 3)
	if !a.Image.Equal(b.Image) || a.Day != b.Day {
		t.Fatal("PutFrame-installed entry diverged from Put-installed entry")
	}
	if viaPut.FootprintBytes() != viaFrame.FootprintBytes() {
		t.Fatalf("footprints differ: %d vs %d", viaPut.FootprintBytes(), viaFrame.FootprintBytes())
	}
}

// TestCompressedBoundedCacheInvariantsUnderChurn is the compressed twin
// of TestBoundedCacheInvariantsUnderChurn: any interleaving of visits,
// puts and tile updates keeps the cache within budget, reports exactly
// the entries that disappeared, and every surviving entry decodes equal
// to an independently maintained storage-codec shadow.
func TestCompressedBoundedCacheInvariantsUnderChurn(t *testing.T) {
	const w, h = 16, 16
	bands := raster.PlanetBands()
	grid := raster.MustTileGrid(w, h, 8)
	src := noise.New(90125)

	// A raw 16x16x4 reference is 2048 bytes; the storage codec at 6 bpp
	// keeps one band in ~min-budget bytes, so whole entries land near
	// 4*64+overhead. Budget three compressed entries' worth.
	probe, err := EncodeStoredRef(propImage(src, 1, w, h, bands), testStoreBPP, codec.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	budget := 3 * int64(len(probe))

	cfg := compressedConfig()
	cfg.BudgetBytes = budget
	cache, err := NewBoundedRefCache(cfg)
	if err != nil {
		t.Fatal(err)
	}
	shadow := map[int]*raster.Image{} // pre-codec shadow content
	evictedTotal := 0
	for round := 1; round <= 120; round++ {
		loc := int(src.Uniform(int64(round), 1) * 8)
		im := propImage(src, int64(round)+2000, w, h, bands)
		var evicted []int
		switch op := src.Uniform(int64(round), 2); {
		case op < 0.4:
			evicted = cache.Put(loc, im.Clone(), round)
			shadow[loc] = storedImage(t, im)
		case op < 0.7:
			mask := raster.NewTileMask(grid)
			for tl := 0; tl < grid.NumTiles(); tl++ {
				mask.Set[tl] = src.Uniform(int64(round), int64(3+tl)) < 0.5
			}
			perBand := make([]*raster.TileMask, len(bands))
			for b := range perBand {
				perBand[b] = mask
			}
			evicted = cache.ApplyTileUpdate(loc, im.Clone(), perBand, round)
			if sh := shadow[loc]; sh != nil {
				// The store splices onto its DECODED content, then passes
				// the storage codec again; the shadow does the same.
				spliced := sh.Clone()
				for b := range perBand {
					for tl, set := range mask.Set {
						if set {
							raster.CopyTile(spliced, im, b, grid, tl)
						}
					}
				}
				shadow[loc] = storedImage(t, spliced)
			} else {
				shadow[loc] = storedImage(t, im)
			}
		default:
			got := cache.Visit(loc, round)
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
			ref := cache.Get(l)
			if ref == nil {
				t.Fatalf("round %d: loc %d vanished without an eviction report", round, l)
			}
			if !ref.Image.Equal(sh) {
				t.Fatalf("round %d: loc %d diverged from storage-codec shadow", round, l)
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
}

func TestCompressedConfigValidation(t *testing.T) {
	if _, err := NewBoundedRefCache(CacheConfig{Compress: true}); err == nil {
		t.Fatal("Compress without StoreBPP must be rejected")
	}
	c, err := NewBoundedRefCache(CacheConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("PutFrame on a raw cache must panic")
		}
	}()
	c.PutFrame(0, nil, raster.New(4, 4, raster.PlanetBands()), 0)
}
