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
// compressed store from concurrent goroutines and loads what each visit
// hands out, as the sharded engine's capture workers do; run it under
// -race, since the loads read stored frames outside the cache lock. Every
// visit hands out its location's stored frame, and each load equals the
// storage codec's own decode.
func TestConcurrentCompressedVisits(t *testing.T) {
	const w, h = 128, 64 // 2x1 codec tiles
	const locs, rounds = 6, 3
	for _, tc := range []struct {
		name string
		opts codec.Options
	}{{"monolithic", codec.DefaultOptions()}, {"tiled", tiledStoreOpts()}} {
		t.Run(tc.name, func(t *testing.T) {
			c, err := NewBoundedRefCache(CacheConfig{Storage: testStorage(tc.opts)})
			if err != nil {
				t.Fatal(err)
			}
			want := make([]*raster.Image, locs)
			for loc := range want {
				im := tiledStoreImage(loc, w, h)
				c.Put(loc, im, 0)
				want[loc] = loadRef(t, heldRef(t, testStorage(tc.opts), im))
			}
			var wg sync.WaitGroup
			for loc := range want {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for day := 1; day <= rounds; day++ {
						ref, refDay := c.Visit(loc, day)
						if ref == nil || refDay != 0 {
							t.Errorf("loc %d day %d: visit missed or handed out day %d", loc, day, refDay)
							return
						}
						if im, err := ref.Load(); err != nil || !im.Equal(want[loc]) {
							t.Errorf("loc %d day %d: load diverged from the storage codec's decode (%v)", loc, day, err)
							return
						}
					}
				}()
			}
			wg.Wait()
		})
	}
}
