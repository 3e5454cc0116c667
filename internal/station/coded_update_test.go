package station

import (
	"bytes"
	"fmt"
	"math"
	"slices"
	"testing"

	"earthplus/internal/codec"
	"earthplus/internal/container"
	"earthplus/internal/link"
	"earthplus/internal/noise"
	"earthplus/internal/raster"
)

// meterWith returns a meter with remaining bytes left; negative means
// unlimited.
func meterWith(remaining int64) *link.Meter {
	switch {
	case remaining < 0:
		return link.NewMeter(0)
	case remaining == 0:
		m := link.NewMeter(1) // a zero capacity would mean unlimited
		m.Consume(1)
		return m
	}
	return link.NewMeter(remaining)
}

// TestPackUplinkStopsCodingPastMeter packs one tiled, compressed delta
// update against a table of meters around its band charges: unlimited,
// 0, c1-1, c1, C-1, C and C+1, where c1 is the first band's charge and C
// the whole update's. Coding must stop right after the first band whose
// running charge passes the meter, the update must ship whole exactly
// when C fits, and a fully coded frame must be the container of the
// bands' own ROI encodes. A satellite with a larger meter continues the
// day's partly coded update. A trim keeps the most-changed units by the
// diffs the update recorded when its masks were chosen, which are the
// mirror's own, and with less than one unit of meter left it keeps
// nothing.
func TestPackUplinkStopsCodingPastMeter(t *testing.T) {
	grid := raster.MustTileGrid(tiledTestW, tiledTestH, tiledTestTile)
	base := tiledTestImage(4100)
	g := testGroundTiled(t, 1)
	if _, err := g.SeedBootstrap(0, 0, base, []int{0, 1}); err != nil {
		t.Fatal(err)
	}
	tiledApplyFull(t, g, 0, 1, mutateTiles(noise.New(4101), 1, base, grid, 6))
	best, seeded := g.bestRef[0], g.mirrors[0][0]

	// The oracle: the update's masks, each band's own ROI encode at the
	// reference rate, and its charge.
	gLow, err := grid.Scaled(tiledTestDown)
	if err != nil {
		t.Fatal(err)
	}
	shared := g.sharedUpdate(0, best, seeded, gLow)
	masks := shared.masks
	g.EndUplinkDay()
	streams := make([][]byte, len(masks))
	charges := make([]int64, len(masks))
	var total int64
	for b, mask := range masks {
		if mask.Count() == 0 {
			t.Fatalf("band %d: no changed tile", b)
		}
		opts := g.storage.Codec
		opts.BudgetBytes = max(int(g.storage.BPP*float64(mask.Count()*mask.Grid.Tile*mask.Grid.Tile)/8), codec.MinBudgetBytes)
		if streams[b], err = codec.EncodeROIPlane(best.img.Plane(b), mask, opts); err != nil {
			t.Fatal(err)
		}
		charges[b] = int64(len(streams[b])) + codec.ROIMaskBytes(mask.Grid)
		total += charges[b]
	}
	wantFrame := container.Pack(streams)
	c1 := charges[0]
	if len(masks) < 3 || c1 <= 0 || total <= c1 {
		t.Fatalf("update too small to exercise the table: charges %v", charges)
	}
	// wantNext is the bands coded against remaining: through the first
	// band whose running charge exceeds it.
	wantNext := func(remaining int64) (next int, charge int64) {
		for next < len(charges) {
			if remaining >= 0 && charge > remaining {
				break
			}
			charge += charges[next]
			next++
		}
		return next, charge
	}

	for _, remaining := range []int64{-1, 0, c1 - 1, c1, total - 1, total, total + 1} {
		t.Run(fmt.Sprintf("remaining=%d", remaining), func(t *testing.T) {
			g.mirrors[0][0] = &refState{img: seeded.img, day: seeded.day, ref: seeded.ref}
			defer g.EndUplinkDay()
			ups, err := g.PackUplink(0, 1, []int{0}, meterWith(remaining))
			if err != nil {
				t.Fatal(err)
			}
			c := g.memo[memoKey{loc: 0, ref: best.img}][0].coded
			next, charge := wantNext(remaining)
			if c.next != next || c.bytes != charge {
				t.Fatalf("coded %d bands (charge %d), want %d (charge %d) of %v", c.next, c.bytes, next, charge, charges)
			}
			if complete := c.frame != nil; complete != (next == len(masks)) {
				t.Fatalf("frame packed: %v after %d of %d bands", complete, next, len(masks))
			} else if complete && !bytes.Equal(c.frame, wantFrame) {
				t.Fatal("coded frame differs from the container of the bands' ROI encodes")
			}
			whole := len(ups) == 1 && ups[0].Bytes == total && bytes.Equal(ups[0].Frame, wantFrame)
			if fits := remaining < 0 || total <= remaining; whole != fits {
				t.Fatalf("update shipped whole: %v, want %v (charge %d)", whole, fits, total)
			}
			for _, u := range ups {
				if remaining >= 0 && u.Bytes > remaining {
					t.Fatalf("shipped %d bytes against %d remaining", u.Bytes, remaining)
				}
			}
		})
	}

	// Satellite 1 holds the same content as satellite 0, so it continues
	// the update satellite 0's meter stopped.
	g.mirrors[0][0] = &refState{img: seeded.img, day: seeded.day, ref: seeded.ref}
	if _, err := g.PackUplink(0, 1, []int{0}, meterWith(c1-1)); err != nil {
		t.Fatal(err)
	}
	c := g.memo[memoKey{loc: 0, ref: best.img}][0].coded
	ups, err := g.PackUplink(1, 1, []int{0}, meterWith(-1))
	if err != nil {
		t.Fatal(err)
	}
	if len(ups) != 1 || !bytes.Equal(ups[0].Frame, wantFrame) || ups[0].Bytes != total {
		t.Fatalf("continued update: %d updates, want the whole update", len(ups))
	}
	if entries := g.memo[memoKey{loc: 0, ref: best.img}]; len(entries) != 1 || entries[0].coded != c || c.next != len(masks) {
		t.Fatal("satellite 1 did not continue satellite 0's partly coded update")
	}
	g.EndUplinkDay()

	// The trim ranks by the recorded diffs: each band's are the mirror's.
	type trimUnit struct {
		band, tile int
		diff       float64
	}
	if len(shared.diffs) != len(masks) {
		t.Fatalf("update recorded diffs for %d bands, want %d", len(shared.diffs), len(masks))
	}
	var units []trimUnit
	for b, mask := range masks {
		diffs := raster.TileMeanAbsDiff(best.img, seeded.img, b, gLow)
		if !slices.Equal(shared.diffs[b], diffs) {
			t.Fatalf("band %d: recorded diffs differ from the mirror's", b)
		}
		for tile, set := range mask.Set {
			if set {
				units = append(units, trimUnit{b, tile, diffs[tile]})
			}
		}
	}
	if len(units) <= 3 {
		t.Fatalf("update of %d units too small to rank", len(units))
	}
	unit := g.trimUnitBytes(gLow)
	for _, remaining := range []int64{-1, 0, unit - 1, unit, 3 * unit, int64(len(units)+1) * unit} {
		out := g.trimUpdateToBudget(shared, remaining)
		n := 0
		for _, m := range out {
			n += m.Count()
		}
		kept, minKept, maxDropped := 0, math.Inf(1), math.Inf(-1)
		for _, u := range units {
			if out[u.band].Set[u.tile] {
				kept++
				minKept = min(minKept, u.diff)
			} else {
				maxDropped = max(maxDropped, u.diff)
			}
		}
		if want := min(int(max(remaining, 0)/unit), len(units)); n != want || kept != want {
			t.Fatalf("trim against %d remaining (unit %d) kept %d units (%d of the update's), want %d", remaining, unit, n, kept, want)
		}
		if minKept < maxDropped {
			t.Fatalf("trim against %d remaining kept a unit of diff %v and dropped one of %v", remaining, minKept, maxDropped)
		}
	}
}
