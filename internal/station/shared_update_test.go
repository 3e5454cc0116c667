package station

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"earthplus/internal/codec"
	"earthplus/internal/link"
	"earthplus/internal/noise"
	"earthplus/internal/raster"
	"earthplus/internal/sat"
)

// fleetCase is one ground flavour of the shared-update tests, with the
// geometry its ground expects and two meters tight enough to trim.
type fleetCase struct {
	name   string
	ground func(t *testing.T, numLocs int) *Ground
	image  func(seed uint64) *raster.Image
	apply  func(t *testing.T, g *Ground, loc, day int, im *raster.Image)
	grid   raster.TileGrid
	tight  [2]int64
}

func fleetCases() []fleetCase {
	return []fleetCase{
		{"raw", testGround, testImage, applyFull,
			raster.MustTileGrid(testW, testH, testTile), [2]int64{250, 700}},
		{"compressed", testGroundCompressed, testImage, applyFull,
			raster.MustTileGrid(testW, testH, testTile), [2]int64{250, 700}},
		{"compressed-tiled", testGroundTiled, tiledTestImage, tiledApplyFull,
			raster.MustTileGrid(tiledTestW, tiledTestH, tiledTestTile), [2]int64{1500, 6000}},
	}
}

// packFleet packs one day's uplink for every satellite, in the given
// order, each against its own fresh meter.
func packFleet(t *testing.T, g *Ground, day int, order, locs []int, budget func(sat int) int64) map[int][]RefUpdate {
	t.Helper()
	out := make(map[int][]RefUpdate, len(order))
	for _, s := range order {
		ups, err := g.PackUplink(s, day, locs, link.NewMeter(budget(s)))
		if err != nil {
			t.Fatal(err)
		}
		out[s] = ups
	}
	return out
}

// updateDiff describes the first difference between two updates, or "".
func updateDiff(a, b RefUpdate) string {
	switch {
	case a.Loc != b.Loc || a.Day != b.Day:
		return fmt.Sprintf("loc/day %d/%d vs %d/%d", a.Loc, a.Day, b.Loc, b.Day)
	case !bytes.Equal(a.Frame, b.Frame):
		return "Frame"
	case !bytes.Equal(a.Ref.Frame, b.Ref.Frame) || (a.Ref.Frame == nil) != (b.Ref.Frame == nil):
		return "Ref.Frame"
	case !sameBits(a.Decoded, b.Decoded):
		return "Decoded"
	case a.Bytes != b.Bytes:
		return fmt.Sprintf("Bytes %d vs %d", a.Bytes, b.Bytes)
	case a.Retransmit != b.Retransmit:
		return "Retransmit"
	case len(a.PerBand) != len(b.PerBand):
		return "PerBand length"
	}
	for band := range a.PerBand {
		if !slices.Equal(a.PerBand[band].Set, b.PerBand[band].Set) {
			return fmt.Sprintf("PerBand[%d]", band)
		}
	}
	return ""
}

// mirrorsDifferingBelowMask gives two satellites mirrors that the change
// masks cannot tell apart from the rest of the fleet's but that code to
// different updates, so only the content and frame parts of the memo key
// separate them: satellite last holds every pixel offset by far less
// than refDiffEps, and on a tiled ground satellite 0 holds the same image
// under a coarser frame, whose untouched tiles a per-tile splice carries
// over. They sit at the two ends of the pack order, so each is the first
// to fill its entry on one of the two grounds.
func mirrorsDifferingBelowMask(t *testing.T, g *Ground, last int) {
	t.Helper()
	for loc, m := range g.mirrors[last] {
		if m == nil {
			continue
		}
		img := m.img.Clone()
		for _, p := range img.Pix {
			for i := range p {
				p[i] += 1e-4
			}
		}
		g.mirrors[last][loc] = &refState{img: img, day: m.day, ref: m.ref}
	}
	coarse := g.storage
	coarse.BPP /= 4
	for loc, m := range g.mirrors[0] {
		if m == nil || !m.ref.Frame.Tiled() {
			continue
		}
		ref, err := coarse.Hold(m.img)
		if err != nil {
			t.Fatal(err)
		}
		g.mirrors[0][loc] = &refState{img: m.img, day: m.day, ref: ref}
	}
}

// TestSharedUpdatesIndependentOfPackOrder pins the shared-update memo's
// key as complete: two identical grounds pack the same fleet, one in
// ascending and one in descending satellite order, so every memo entry is
// first filled by a different satellite — with a different meter, mirror
// state and retry count — on each side. Invalidated and NACKed mirrors,
// trimmed re-seeds, trimmed deltas and mirrors that differ below the
// change masks (mirrorsDifferingBelowMask) make the satellites' mirrors
// diverge, and the tight meters leave some shared updates partly coded
// for a later satellite to continue. Every satellite must still receive
// byte-identical updates and end with byte-identical mirrors on both
// grounds.
func TestSharedUpdatesIndependentOfPackOrder(t *testing.T) {
	const numLocs, numSats = 2, 8
	for _, tc := range fleetCases() {
		t.Run(tc.name, func(t *testing.T) {
			asc, desc := tc.ground(t, numLocs), tc.ground(t, numLocs)
			grounds := []*Ground{asc, desc}
			up := make([]int, numSats)
			for s := range up {
				up[s] = s
			}
			down := slices.Clone(up)
			slices.Reverse(down)
			budget := func(s int) int64 {
				switch s {
				case 3:
					return tc.tight[0]
				case 6:
					return tc.tight[1]
				}
				return 0 // unlimited
			}
			state := make([]*raster.Image, numLocs)
			for loc := range state {
				state[loc] = tc.image(uint64(1200 + loc))
				for _, g := range grounds {
					if _, err := g.SeedBootstrap(loc, 0, state[loc], up); err != nil {
						t.Fatal(err)
					}
				}
			}
			src := noise.New(8128)
			locs := []int{0, 1}
			shared, trimmed, partial := 0, 0, 0
			for day := 1; day <= 3; day++ {
				for loc := range state {
					state[loc] = mutateTiles(src, day*numLocs+loc, state[loc], tc.grid, 2)
					for _, g := range grounds {
						tc.apply(t, g, loc, day, state[loc])
						// An on-board eviction: this satellite re-seeds loc.
						g.InvalidateMirror(day%numSats, loc)
					}
				}
				if day == 1 {
					for _, g := range grounds {
						mirrorsDifferingBelowMask(t, g, numSats-1)
					}
				}
				got := [2]map[int][]RefUpdate{
					packFleet(t, asc, day, up, locs, budget),
					packFleet(t, desc, day, down, locs, budget),
				}
				for s := 0; s < numSats; s++ {
					a, b := got[0][s], got[1][s]
					if len(a) != len(b) {
						t.Fatalf("day %d sat %d: %d updates ascending, %d descending", day, s, len(a), len(b))
					}
					for i := range a {
						if d := updateDiff(a[i], b[i]); d != "" {
							t.Fatalf("day %d sat %d update %d (loc %d): %s differs with pack order", day, s, i, a[i].Loc, d)
						}
					}
				}
				// Sharing, trimming and stopping early all ran: some frame
				// backs two satellites' updates, some update is not a memo
				// entry, and some memo entry was left partly coded.
				memoFrames := map[*byte]bool{}
				for loc := range state {
					for _, e := range asc.memo[memoKey{loc: loc, ref: asc.bestRef[loc].img}] {
						switch {
						case e.coded == nil:
						case e.coded.frame == nil:
							partial++
						default:
							memoFrames[&e.coded.frame[0]] = true
						}
					}
				}
				seen := map[*byte]bool{}
				for _, s := range up {
					for _, u := range got[0][s] {
						if seen[&u.Frame[0]] {
							shared++
						}
						seen[&u.Frame[0]] = true
						if !memoFrames[&u.Frame[0]] {
							trimmed++
						}
					}
				}
				for loc := range state {
					for s := 0; s < numSats; s++ {
						ma, mb := asc.MirrorImage(s, loc), desc.MirrorImage(s, loc)
						if (ma == nil) != (mb == nil) || (ma != nil && !sameBits(ma, mb)) {
							t.Fatalf("day %d sat %d loc %d: mirror differs with pack order", day, s, loc)
						}
						if da, db := asc.MirrorRefDay(s, loc), desc.MirrorRefDay(s, loc); da != db {
							t.Fatalf("day %d sat %d loc %d: mirror day %d vs %d", day, s, loc, da, db)
						}
					}
				}
				for _, g := range grounds {
					// A failed delivery: the next pack re-seeds it as a
					// retransmit.
					g.NackDelivery((day+4)%numSats, day%numLocs)
					g.EndUplinkDay()
				}
			}
			if shared == 0 || trimmed == 0 || partial == 0 {
				t.Fatalf("property not exercised: %d shared updates, %d trimmed, %d partly coded", shared, trimmed, partial)
			}
		})
	}
}

// fbmImage is a w x w fractal-noise capture in the given bands, each band
// drawn from its own seed (seed + band index) into [0.1, 0.8].
func fbmImage(w int, bands []raster.BandInfo, seed uint64) *raster.Image {
	im := raster.New(w, w, bands)
	for band := range bands {
		p := im.Plane(band)
		noise.New(seed+uint64(band)).FillFBM(p, w, w, 5, 3)
		for i, v := range p {
			p[i] = 0.1 + 0.7*v
		}
	}
	return im
}

// BenchmarkPackUplinkFleet measures the day-end uplink stage at the
// default simulation's scale: 8 satellites, 11 locations and 48x48x13
// references (192x192 Sentinel-2 captures downsampled by 4). Each
// iteration promotes one new reference per location, alternating between
// two contents that differ in 8 of 144 tiles, then packs every satellite
// against an unlimited meter and ends the day.
func BenchmarkPackUplinkFleet(b *testing.B) {
	const numSats, numLocs, w, tile, down = 8, 11, 192, 16, 4
	bands := raster.Sentinel2Bands()
	grid := raster.MustTileGrid(w, w, tile)
	g, err := NewGround(Config{
		Bands: bands, Grid: grid, Downsample: down,
		Storage: sat.Storage{BPP: 6, Codec: codec.DefaultOptions()}, MaxRefCloud: 0.05,
	}, numLocs)
	if err != nil {
		b.Fatal(err)
	}
	contents := [2]*raster.Image{fbmImage(w, bands, 31)}
	contents[1] = mutateTiles(noise.New(7), 0, contents[0], grid, 8)
	sats := make([]int, numSats)
	for s := range sats {
		sats[s] = s
	}
	locs := make([]int, numLocs)
	for loc := range locs {
		locs[loc] = loc
		if _, err := g.SeedBootstrap(loc, 0, contents[0], sats); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		day := i + 1
		b.StopTimer()
		for _, loc := range locs {
			g.archive[loc] = contents[day%2]
			if _, err := g.MaybePromote(loc, day, 0); err != nil {
				b.Fatal(err)
			}
		}
		b.StartTimer()
		for _, s := range sats {
			if _, err := g.PackUplink(s, day, locs, link.NewMeter(0)); err != nil {
				b.Fatal(err)
			}
		}
		g.EndUplinkDay()
	}
}

// BenchmarkPackUplinkContended measures the day-end uplink stage when the
// meter, not the content, bounds it, at the constrained simulation's
// scale: 8 satellites and 11 locations of 192x192 Sentinel-2 captures,
// downsampled by 2 into compressed tiled stores, each satellite packing
// against one station contact's 30,123 B meter. Every satellite's mirrors
// hold their own content, so no update is shared and each differs from
// the reference in nearly every tile: the first update overruns the
// meter and is trimmed, and the meter runs dry for the rest. Each
// iteration restores the seeded mirrors, packs every satellite and ends
// the day.
func BenchmarkPackUplinkContended(b *testing.B) {
	const numSats, numLocs, w, tile, down, contact = 8, 11, 192, 16, 2, 30123
	bands := raster.Sentinel2Bands()
	opts := codec.DefaultOptions()
	opts.Tiled = true
	g, err := NewGround(Config{
		Bands: bands, Grid: raster.MustTileGrid(w, w, tile), Downsample: down,
		Storage: sat.Storage{Compress: true, BPP: 6, Codec: opts}, MaxRefCloud: 0.05,
	}, numLocs)
	if err != nil {
		b.Fatal(err)
	}
	seeded := make([][]refState, numSats) // restored before every iteration
	for s := range seeded {
		own := fbmImage(w, bands, uint64(100*(s+1)))
		for loc := 0; loc < numLocs; loc++ {
			if _, err := g.SeedBootstrap(loc, 0, own, []int{s}); err != nil {
				b.Fatal(err)
			}
			seeded[s] = append(seeded[s], *g.mirrors[s][loc])
		}
	}
	ref := fbmImage(w, bands, 31)
	locs := make([]int, numLocs)
	for loc := range locs {
		locs[loc] = loc
		g.archive[loc] = ref
		if _, err := g.MaybePromote(loc, 1, 0); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		for s, mirrors := range seeded {
			for loc, m := range mirrors {
				g.mirrors[s][loc] = &m
			}
		}
		b.StartTimer()
		for s := range seeded {
			if _, err := g.PackUplink(s, i+1, locs, link.NewMeter(contact)); err != nil {
				b.Fatal(err)
			}
		}
		g.EndUplinkDay()
	}
}

// TestSharedMirrorsDoNotAliasOnboardStores pins the ownership rule of
// shared reference images: satellites that took the same update share
// one image, in the ground's mirrors and in their raw stores alike (each
// store installs RefUpdate.Ref, whose image is the mirror's). A store's later
// splice (ApplyTileUpdate) builds a new image, which must leave every
// other satellite's mirror — and its store — untouched.
func TestSharedMirrorsDoNotAliasOnboardStores(t *testing.T) {
	const numLocs = 2
	sats := []int{0, 1, 2, 3}
	g := testGround(t, numLocs)
	grid := raster.MustTileGrid(testW, testH, testTile)
	src := noise.New(4242)
	caches := make([]*sat.RefCache, len(sats))
	state := make([]*raster.Image, numLocs)
	for loc := range state {
		state[loc] = testImage(uint64(1300 + loc))
		if _, err := g.SeedBootstrap(loc, 0, state[loc], sats); err != nil {
			t.Fatal(err)
		}
	}
	for _, s := range sats {
		caches[s] = sat.NewRefCache()
		for loc := range state {
			caches[s].Put(loc, g.MirrorImage(s, loc), 0)
		}
	}
	locs := []int{0, 1}
	promote := func(day int) {
		for loc := range state {
			state[loc] = mutateTiles(src, day*numLocs+loc, state[loc], grid, 3)
			applyFull(t, g, loc, day, state[loc])
		}
	}

	// Day 1: every satellite takes the same shared updates and installs
	// them the way the system does.
	promote(1)
	for _, s := range sats {
		ups, err := g.PackUplink(s, 1, locs, link.NewMeter(0))
		if err != nil {
			t.Fatal(err)
		}
		if len(ups) != numLocs {
			t.Fatalf("sat %d: %d updates, want %d", s, len(ups), numLocs)
		}
		for _, u := range ups {
			caches[s].Install(u.Loc, u.Ref, u.Day)
		}
	}
	g.EndUplinkDay()

	// Day 2: only satellite 0 wins a contact, and splices its update into
	// the day-1 image its store kept.
	promote(2)
	before := make(map[int][]*raster.Image)
	for _, s := range sats[1:] {
		for loc := range state {
			before[s] = append(before[s], g.MirrorImage(s, loc))
		}
	}
	ups, err := g.PackUplink(0, 2, locs, link.NewMeter(0))
	if err != nil {
		t.Fatal(err)
	}
	if len(ups) == 0 {
		t.Fatal("property not exercised: no day-2 update for satellite 0")
	}
	for _, u := range ups {
		caches[0].ApplyTileUpdate(u.Loc, u.Decoded, u.PerBand, u.Day)
		if !caches[0].Get(u.Loc).Image.Equal(g.MirrorImage(0, u.Loc)) {
			t.Fatalf("loc %d: satellite 0's store diverged from its mirror", u.Loc)
		}
	}
	for _, s := range sats[1:] {
		for loc := range state {
			mirror := g.MirrorImage(s, loc)
			if !sameBits(mirror, before[s][loc]) {
				t.Fatalf("sat %d loc %d: another satellite's splice changed this mirror", s, loc)
			}
			if !caches[s].Get(loc).Image.Equal(mirror) {
				t.Fatalf("sat %d loc %d: store diverged from its mirror", s, loc)
			}
		}
	}
}
