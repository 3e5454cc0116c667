package codec

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"testing"

	"earthplus/internal/raster"
)

// tiledTestPlane builds a deterministic smooth-plus-detail test plane.
func tiledTestPlane(seed int64, w, h int) []float32 {
	rng := rand.New(rand.NewSource(seed))
	plane := make([]float32, w*h)
	cx, cy := float64(w)/2, float64(h)/2
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			d := math.Hypot(float64(x)-cx, float64(y)-cy)
			v := 0.5 + 0.3*math.Sin(d/9) + 0.1*math.Sin(float64(x)/5)*math.Cos(float64(y)/7)
			v += 0.02 * (rng.Float64() - 0.5)
			plane[y*w+x] = float32(v)
		}
	}
	return plane
}

func TestTiledRoundTrip(t *testing.T) {
	opt := DefaultOptions()
	opt.Tiled = true
	for _, c := range []struct{ w, h int }{
		{64, 64}, {256, 256}, {128, 192}, {100, 70}, {65, 129}, {16, 16}, {1, 1}, {300, 5},
	} {
		plane := tiledTestPlane(1, c.w, c.h)
		enc, err := EncodePlane(plane, c.w, c.h, opt)
		if err != nil {
			t.Fatalf("%dx%d: encode: %v", c.w, c.h, err)
		}
		if !IsTiled(enc) {
			t.Fatalf("%dx%d: stream is not tiled", c.w, c.h)
		}
		dec, w, h, err := DecodePlane(enc, 0)
		if err != nil {
			t.Fatalf("%dx%d: decode: %v", c.w, c.h, err)
		}
		if w != c.w || h != c.h {
			t.Fatalf("%dx%d: decoded as %dx%d", c.w, c.h, w, h)
		}
		if psnr := planePSNR(plane, dec); psnr < 40 {
			t.Fatalf("%dx%d: unbudgeted tiled round trip PSNR %.1f dB", c.w, c.h, psnr)
		}
	}
}

func TestTiledParseInfo(t *testing.T) {
	opt := DefaultOptions()
	opt.Tiled = true
	plane := tiledTestPlane(2, 256, 192)
	enc, err := EncodePlane(plane, 256, 192, opt)
	if err != nil {
		t.Fatal(err)
	}
	info, err := Parse(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !info.Tiled || info.W != 256 || info.H != 192 || info.TileSize != raster.DefaultTileSize || info.NTiles != 12 {
		t.Fatalf("Parse = %+v", info)
	}
}

func TestTiledBudget(t *testing.T) {
	opt := DefaultOptions()
	opt.Tiled = true
	plane := tiledTestPlane(3, 256, 256)
	full, err := EncodePlane(plane, 256, 256, opt)
	if err != nil {
		t.Fatal(err)
	}
	for _, bpp := range []float64{0.25, 0.5, 1.0} {
		opt.BudgetBytes = BudgetForBPP(bpp, 256, 256)
		enc, err := EncodePlane(plane, 256, 256, opt)
		if err != nil {
			t.Fatal(err)
		}
		if len(enc) > opt.BudgetBytes {
			t.Fatalf("bpp %.2f: %d bytes exceeds budget %d", bpp, len(enc), opt.BudgetBytes)
		}
		dec, _, _, err := DecodePlane(enc, 0)
		if err != nil {
			t.Fatal(err)
		}
		if psnr := planePSNR(plane, dec); psnr < 20 {
			t.Fatalf("bpp %.2f: PSNR %.1f dB too low", bpp, psnr)
		}
	}
	if len(full) == 0 {
		t.Fatal("unbudgeted stream empty")
	}
	// A budget below the header+index cost must be rejected, like the
	// monolithic profile's BudgetTooSmall contract.
	opt.BudgetBytes = 8
	if _, err := EncodePlane(plane, 256, 256, opt); err == nil {
		t.Fatal("tiny budget accepted")
	}
}

func TestTiledEncodeDeterministicAcrossWorkers(t *testing.T) {
	plane := tiledTestPlane(4, 320, 256)
	var want []byte
	for _, par := range []int{1, 2, 4, 8} {
		opt := DefaultOptions()
		opt.Tiled = true
		opt.Parallelism = par
		opt.BudgetBytes = BudgetForBPP(0.7, 320, 256)
		enc, err := EncodePlane(plane, 320, 256, opt)
		if err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want = enc
		} else if !bytes.Equal(want, enc) {
			t.Fatalf("parallelism %d: stream differs from serial", par)
		}
	}
}

// TestDecodeRegionMatchesCrop is the region-decode property test: for any
// rectangle, DecodeRegion equals the crop of the full decode — on both
// profiles.
func TestDecodeRegionMatchesCrop(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, tiled := range []bool{true, false} {
		opt := DefaultOptions()
		opt.Tiled = tiled
		const w, h = 256, 192
		plane := tiledTestPlane(5, w, h)
		opt.BudgetBytes = BudgetForBPP(1.0, w, h)
		enc, err := EncodePlane(plane, w, h, opt)
		if err != nil {
			t.Fatal(err)
		}
		full, _, _, err := DecodePlane(enc, 0)
		if err != nil {
			t.Fatal(err)
		}
		rects := [][4]int{
			{0, 0, w, h}, {0, 0, 64, 64}, {64, 64, 128, 128}, {63, 63, 2, 2},
			{-10, -10, 74, 74}, {200, 150, 100, 100}, {0, 0, 1, 1}, {17, 33, 95, 41},
		}
		for i := 0; i < 12; i++ {
			rects = append(rects, [4]int{rng.Intn(w), rng.Intn(h), 1 + rng.Intn(w), 1 + rng.Intn(h)})
		}
		for _, r := range rects {
			got, cw, ch, err := DecodeRegion(enc, r[0], r[1], r[2], r[3])
			if err != nil {
				t.Fatalf("tiled=%v region %v: %v", tiled, r, err)
			}
			cx0, cy0 := max(r[0], 0), max(r[1], 0)
			if cw != min(r[0]+r[2], w)-cx0 || ch != min(r[1]+r[3], h)-cy0 {
				t.Fatalf("tiled=%v region %v: got %dx%d", tiled, r, cw, ch)
			}
			for dy := 0; dy < ch; dy++ {
				for dx := 0; dx < cw; dx++ {
					if got[dy*cw+dx] != full[(cy0+dy)*w+cx0+dx] {
						t.Fatalf("tiled=%v region %v: sample (%d,%d) = %v, full decode %v",
							tiled, r, dx, dy, got[dy*cw+dx], full[(cy0+dy)*w+cx0+dx])
					}
				}
			}
		}
		// Fully outside rectangles error.
		if _, _, _, err := DecodeRegion(enc, w, h, 4, 4); err == nil {
			t.Fatalf("tiled=%v: out-of-bounds region accepted", tiled)
		}
		if _, _, _, err := DecodeRegion(enc, 0, 0, 0, 4); err == nil {
			t.Fatalf("tiled=%v: empty region accepted", tiled)
		}
	}
}

// TestRegionTiles: a region decode reads only the tiles its rectangle
// touches. Corrupting a tile outside the rectangle leaves the output
// bit-identical; corrupting one inside changes it.
func TestRegionTiles(t *testing.T) {
	opt := DefaultOptions()
	opt.Tiled = true
	plane := tiledTestPlane(6, 256, 256)
	enc, err := EncodePlane(plane, 256, 256, opt)
	if err != nil {
		t.Fatal(err)
	}
	// [32,96) x [32,96) touches codec tiles 0, 1, 4 and 5 of the 4x4 grid.
	region := func(data []byte) []float32 {
		t.Helper()
		out, _, _, err := DecodeRegion(data, 32, 32, 64, 64)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	corrupt := func(tile int) []byte {
		b := append([]byte(nil), enc...)
		off := binary.LittleEndian.Uint32(b[tiledHdrLen+tiledIndexEntry*tile:])
		ln := binary.LittleEndian.Uint32(b[tiledHdrLen+tiledIndexEntry*tile+4:])
		if ln == 0 {
			t.Fatalf("tile %d has an empty payload", tile)
		}
		for i := off; i < off+ln; i++ {
			b[i] ^= 0x5A
		}
		return b
	}
	want := region(enc)
	same := func(a, b []float32) bool {
		for i := range a {
			if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
				return false
			}
		}
		return true
	}
	if !same(region(corrupt(15)), want) {
		t.Fatal("corrupting a tile outside the region changed the region decode")
	}
	if same(region(corrupt(5)), want) {
		t.Fatal("corrupting a tile inside the region left the region decode unchanged")
	}
}

// TestTiledSpliceMatchesReencode: a splice takes the band's new content,
// clamp(decode(old)) overlaid with the update's changed tiles, and
// re-encodes exactly the codec tiles a changed mask tile touches, so each
// such tile equals the same tile of a fresh encode of that plane; every
// other tile keeps its old payload bytes. On return the plane holds the
// spliced stream's clamped decode, bit for bit. This is the coherence
// invariant the sat store and the ground mirror rely on. The plane has
// edge codec tiles on both axes, and changed tiles touch them.
func TestTiledSpliceMatchesReencode(t *testing.T) {
	const w, h = 250, 180 // 4x3 codec tiles, the last column 58 wide, the last row 52 high
	opt := DefaultOptions()
	opt.Tiled = true
	opt.BudgetBytes = BudgetForBPP(1.0, w, h)
	oldPlane := tiledTestPlane(7, w, h)
	// Out-of-range blocks in codec tile 0, outside any changed mask tile,
	// that still decode out of range: the input is the clamped decode.
	for y := 32; y < 64; y++ {
		for x := 16; x < 56; x++ {
			oldPlane[y*w+x] = 1.5
			if x < 32 {
				oldPlane[y*w+x] = -0.5
			}
		}
	}
	oldEnc, err := EncodePlane(oldPlane, w, h, opt)
	if err != nil {
		t.Fatal(err)
	}
	clampedDecode := func(data []byte) []float32 {
		t.Helper()
		p, _, _, err := DecodePlane(data, 0)
		if err != nil {
			t.Fatal(err)
		}
		raster.ClampPlane(p)
		return p
	}

	// Update four 10px detection-grid tiles; the mask grid is finer than
	// the codec grid and not aligned to it, as in the simulator. They
	// touch codec tile 0, tiles 4 and 5 (one mask tile straddles them),
	// the right edge tile 3 and the corner tile 11. The update is out of
	// range, so the decode written back must be clamped.
	input := clampedDecode(oldEnc)
	mask := raster.NewTileMask(raster.MustTileGrid(w, h, 10))
	for _, mt := range []int{0, 7*25 + 6, 20, 17*25 + 24} {
		mask.Set[mt] = true
		x0, y0, x1, y1 := mask.Grid.Bounds(mt)
		for y := y0; y < y1; y++ {
			for x := x0; x < x1; x++ {
				input[y*w+x] = float32(x%3)*0.6 - 0.1
			}
		}
	}
	fresh, err := EncodePlane(input, w, h, opt)
	if err != nil {
		t.Fatal(err)
	}

	plane := append([]float32(nil), input...)
	spliced, reencoded, total, err := TiledSplicePlane(oldEnc, plane, mask, opt)
	if err != nil {
		t.Fatal(err)
	}
	redo := map[int]bool{0: true, 3: true, 4: true, 5: true, 11: true}
	if reencoded != len(redo) || total != 12 {
		t.Fatalf("re-encoded %d of %d tiles, want %d of 12", reencoded, total, len(redo))
	}
	got, err := parseTiled(spliced)
	if err != nil {
		t.Fatal(err)
	}
	freshTiles, _ := parseTiled(fresh)
	oldTiles, _ := parseTiled(oldEnc)
	for tile := range got.payloads {
		want := oldTiles.payloads[tile]
		if redo[tile] {
			want = freshTiles.payloads[tile]
		}
		if !bytes.Equal(got.payloads[tile], want) {
			t.Fatalf("tile %d: spliced payload (%d bytes) differs from the expected %d bytes",
				tile, len(got.payloads[tile]), len(want))
		}
	}
	wantPlane := clampedDecode(spliced)
	for i, v := range plane {
		if math.Float32bits(v) != math.Float32bits(wantPlane[i]) {
			t.Fatalf("sample (%d,%d) = %v after the splice, want the clamped decode %v", i%w, i/w, v, wantPlane[i])
		}
	}
	if slices.Equal(plane, input) {
		t.Fatal("the splice wrote no decode back into the plane")
	}

	// An empty mask must reproduce the old stream bytes and leave the
	// plane alone.
	empty := raster.NewTileMask(mask.Grid)
	plane = append(plane[:0], input...)
	same, reencoded, _, err := TiledSplicePlane(oldEnc, plane, empty, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(same, oldEnc) || reencoded != 0 || !slices.Equal(plane, input) {
		t.Fatal("empty splice changed the stream or the plane")
	}
}

func TestTiledDecodeRejectsHostileHeaders(t *testing.T) {
	opt := DefaultOptions()
	opt.Tiled = true
	plane := tiledTestPlane(8, 128, 128)
	enc, err := EncodePlane(plane, 128, 128, opt)
	if err != nil {
		t.Fatal(err)
	}
	mutate := func(f func(b []byte)) []byte {
		b := append([]byte(nil), enc...)
		f(b)
		return b
	}
	cases := map[string][]byte{
		"truncated header": enc[:10],
		"zero tile":        mutate(func(b []byte) { b[13] = 0 }),
		"tile count":       mutate(func(b []byte) { b[14]++ }),
		"offset backward":  mutate(func(b []byte) { b[tiledHdrLen] = 0 }),
		"length escape":    mutate(func(b []byte) { b[tiledHdrLen+4] = 0xFF; b[tiledHdrLen+5] = 0xFF; b[tiledHdrLen+6] = 0xFF }),
		"zero width":       mutate(func(b []byte) { b[4], b[5] = 0, 0 }),
	}
	for name, b := range cases {
		if _, _, _, err := DecodePlane(b, 0); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}
