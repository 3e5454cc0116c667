package sat

import (
	"math"
	"sync"
	"testing"

	"earthplus/internal/codec"
	"earthplus/internal/raster"
)

// tiledStoreOpts is the tiled storage-codec profile of these tests.
func tiledStoreOpts() codec.Options {
	o := codec.DefaultOptions()
	o.Tiled = true
	return o
}

// tiledStoreImage builds a deterministic 4-band test reference spanning
// several 64px codec tiles.
func tiledStoreImage(seed, w, h int) *raster.Image {
	im := raster.New(w, h, raster.PlanetBands())
	for b := 0; b < im.NumBands(); b++ {
		p := im.Plane(b)
		for y := 0; y < h; y++ {
			for x := 0; x < w; x++ {
				p[y*w+x] = float32(0.5 + 0.3*math.Sin(float64(seed+b)+float64(x)/7) +
					0.15*math.Cos(float64(y)/11))
			}
		}
	}
	return im
}

// TestConcurrentCompressedVisits visits distinct locations of one
// compressed store from concurrent goroutines, as the sharded engine
// does; run it under -race, since a compressed Visit decodes outside the
// cache lock. The store keeps no decoded planes, so every visit decodes
// its frame once, and each decode equals the storage codec's own.
func TestConcurrentCompressedVisits(t *testing.T) {
	const w, h = 128, 64 // 2x1 codec tiles
	const locs, rounds = 6, 3
	for _, tc := range []struct {
		name string
		opts codec.Options
	}{{"monolithic", codec.DefaultOptions()}, {"tiled", tiledStoreOpts()}} {
		t.Run(tc.name, func(t *testing.T) {
			c, err := NewBoundedRefCache(CacheConfig{Compress: true, StoreBPP: testStoreBPP, Codec: tc.opts})
			if err != nil {
				t.Fatal(err)
			}
			want := make([]*raster.Image, locs)
			for loc := range want {
				im := tiledStoreImage(loc, w, h)
				c.Put(loc, im, 0)
				frame, err := EncodeStoredRef(im, testStoreBPP, tc.opts)
				if err != nil {
					t.Fatal(err)
				}
				if want[loc], err = DecodeStoredRef(frame, w, h, im.Bands); err != nil {
					t.Fatal(err)
				}
			}
			var wg sync.WaitGroup
			for loc := range want {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for day := 1; day <= rounds; day++ {
						ref := c.Visit(loc, day)
						if ref == nil || ref.Day != 0 || !ref.Image.Equal(want[loc]) {
							t.Errorf("loc %d day %d: visit diverged from the storage codec's decode", loc, day)
							return
						}
					}
				}()
			}
			wg.Wait()
			if got := c.Decodes(); got != locs*rounds {
				t.Fatalf("Decodes = %d, want one per visit (%d)", got, locs*rounds)
			}
		})
	}
}
