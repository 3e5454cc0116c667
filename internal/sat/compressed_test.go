package sat

import (
	"bytes"
	"testing"

	"earthplus/internal/codec"
	"earthplus/internal/noise"
	"earthplus/internal/raster"
)

// The compressed reference store's contract: an entry's content is ALWAYS
// decode(frame) of the storage codec — never the raw image that was
// installed — and its accounted footprint is the frame's real byte count.
// The store hands out the frame; whoever loads it decodes it afresh.

const testStoreBPP = 6.0

// testStorage is the compressed Storage of these tests.
func testStorage(opts codec.Options) Storage {
	return Storage{Compress: true, BPP: testStoreBPP, Codec: opts}
}

func compressedConfig() CacheConfig {
	return CacheConfig{Storage: testStorage(codec.DefaultOptions())}
}

// heldRef is the Ref s holds for im.
func heldRef(t testing.TB, s Storage, im *raster.Image) Ref {
	t.Helper()
	ref, err := s.Hold(im)
	if err != nil {
		t.Fatal(err)
	}
	return ref
}

// loadRef is ref's content.
func loadRef(t testing.TB, ref Ref) *raster.Image {
	t.Helper()
	im, err := ref.Load()
	if err != nil {
		t.Fatal(err)
	}
	return im
}

// storedImage independently applies the storage codec — the content a
// compressed cache must reproduce for an installed image.
func storedImage(t *testing.T, im *raster.Image) *raster.Image {
	t.Helper()
	return loadRef(t, heldRef(t, testStorage(codec.DefaultOptions()), im))
}

// TestUpdateContentMatchesLoad: the content Storage.Update returns next
// to a Ref is that Ref's Load, bit for bit, and next is left as it was.
// Each kind of held reference (a tiled frame, which splices, a monolithic
// frame, a raw image, and the zero Ref of each storage) takes nil, empty
// and partial masks; next is the held content with the update's changed
// tiles overlaid, as the ground's mirror builds it.
func TestUpdateContentMatchesLoad(t *testing.T) {
	const w, h = 150, 100 // edge codec tiles on both axes
	g := raster.MustTileGrid(w, h, 10)
	empty := make([]*raster.TileMask, 4)
	for b := range empty {
		empty[b] = raster.NewTileMask(g)
	}
	maskSets := []struct {
		name  string
		masks []*raster.TileMask
	}{{"nil", nil}, {"empty", empty}, {"partial", digestMasks(g)}}
	storages := []struct {
		name string
		s    Storage
	}{{"raw", Storage{}}, {"monolithic", testStorage(codec.DefaultOptions())}, {"tiled", testStorage(tiledStoreOpts())}}
	held := digestImage(7500, w, h)
	update := digestImage(7600, w, h)
	for _, st := range storages {
		for _, prev := range []struct {
			name string
			ref  Ref
		}{{"zero", Ref{}}, {"held", heldRef(t, st.s, held)}} {
			for _, ms := range maskSets {
				t.Run(st.name+"/"+prev.name+"/"+ms.name, func(t *testing.T) {
					next := update
					if prev.ref.Frame != nil || prev.ref.Image != nil {
						next = overlaid(loadRef(t, prev.ref), update, ms.masks)
					}
					before := imageBits(next)
					ref, content, stats, err := st.s.Update(prev.ref, next, ms.masks)
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(imageBits(content), imageBits(loadRef(t, ref))) {
						t.Fatal("Update's content differs from its Ref's Load")
					}
					if !bytes.Equal(imageBits(next), before) {
						t.Fatal("Update modified next")
					}
					spliced := st.name == "tiled" && prev.name == "held" && ms.name == "partial"
					if (stats.TilesReencoded > 0) != spliced {
						t.Fatalf("re-encoded %d of %d codec tiles", stats.TilesReencoded, stats.TilesTotal)
					}
				})
			}
		}
	}
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
	ref, day := cache.Visit(0, 4)
	if ref == nil || ref.Frame == nil || day != 3 {
		t.Fatalf("visit returned day %d (frame held: %v), want a frame from day 3", day, ref != nil && ref.Frame != nil)
	}
	got := loadRef(t, *ref)
	if !got.Equal(want) {
		t.Fatal("compressed entry did not decode to the storage codec's output")
	}
	if got.Equal(im) {
		t.Fatal("lossy storage codec returned the raw install image; the test is vacuous")
	}

	// Footprint is the encoded frame, several times below the raw rate.
	raw := cache.StorageBytes()
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

	viaFrame, err := NewBoundedRefCache(compressedConfig())
	if err != nil {
		t.Fatal(err)
	}
	viaFrame.Install(5, heldRef(t, testStorage(codec.DefaultOptions()), im), 2)

	a, aDay := viaPut.Visit(5, 3)
	b, bDay := viaFrame.Visit(5, 3)
	if !loadRef(t, *a).Equal(loadRef(t, *b)) || aDay != bDay {
		t.Fatal("Install-installed entry diverged from Put-installed entry")
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
	probe := heldRef(t, testStorage(codec.DefaultOptions()), propImage(src, 1, w, h, bands))
	budget := 3 * int64(len(probe.Frame))

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
			if !loadRef(t, *ref).Equal(sh) {
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
	if _, err := NewBoundedRefCache(CacheConfig{Storage: Storage{Compress: true}}); err == nil {
		t.Fatal("Compress without a Storage.BPP must be rejected")
	}
	im := raster.New(16, 16, raster.PlanetBands())
	raw := NewRefCache()
	compressed, err := NewBoundedRefCache(compressedConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		cache *RefCache
		ref   Ref
	}{
		{"frame into a raw cache", raw, heldRef(t, testStorage(codec.DefaultOptions()), im)},
		{"image into a compressed cache", compressed, heldRef(t, Storage{}, im)},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("Install of a %s must panic", tc.name)
				}
			}()
			tc.cache.Install(0, tc.ref, 0)
		}()
	}
}
