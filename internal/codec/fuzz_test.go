package codec

import (
	"context"
	"encoding/binary"
	"testing"

	"earthplus/internal/container"
	"earthplus/internal/raster"
)

// The ground station parses whatever the downlink delivers, so the parser
// and decoder must tolerate arbitrary corruption: every failure mode is an
// error (or garbage pixels), never a panic or an implausible allocation.
// The fuzz targets drive both entry points with truncated, bit-flipped and
// synthetic streams; `go test -fuzz=FuzzDecodePlane ./internal/codec` digs
// deeper than the seeded corpus run in CI.

// fuzzSeedStream builds a small valid codestream to seed mutation from.
func fuzzSeedStream(tb testing.TB, w, h, budget int) []byte {
	tb.Helper()
	opt := DefaultOptions()
	opt.BudgetBytes = budget
	data, err := EncodePlane(testPlane(9, w, h), w, h, opt)
	if err != nil {
		tb.Fatal(err)
	}
	return data
}

func FuzzParse(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("EPC1"))
	f.Add(fuzzSeedStream(f, 32, 32, 0))
	f.Add(fuzzSeedStream(f, 48, 16, 256))
	seed := fuzzSeedStream(f, 32, 32, 512)
	f.Add(seed[:len(seed)/2])
	f.Fuzz(func(t *testing.T, data []byte) {
		info, err := Parse(data)
		if err != nil {
			return
		}
		if info.W <= 0 || info.H <= 0 || info.W > 1<<15 || info.H > 1<<15 {
			t.Fatalf("Parse accepted implausible geometry %dx%d", info.W, info.H)
		}
		if info.NLayers < 0 || info.NLayers != len(info.LayerBytes) {
			t.Fatalf("Parse returned inconsistent layer table: %d vs %d",
				info.NLayers, len(info.LayerBytes))
		}
	})
}

// fuzzSeedTiled builds a small valid tiled (EPT1) codestream to seed
// mutation from.
func fuzzSeedTiled(tb testing.TB, w, h, tile, budget int) []byte {
	tb.Helper()
	opt := DefaultOptions()
	opt.Tiled = true
	opt.TileSize = tile
	opt.BudgetBytes = budget
	data, err := EncodePlane(testPlane(17, w, h), w, h, opt)
	if err != nil {
		tb.Fatal(err)
	}
	return data
}

// FuzzParseTiled drives the EPT1 parser and the region decoder with
// hostile tile-index tables: offsets escaping the buffer, overlapping or
// out-of-order payloads, lying tile counts and truncated indexes must
// all come back as errors — never a panic, an implausible allocation or
// an out-of-bounds payload view.
func FuzzParseTiled(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("EPT1"))
	f.Add(fuzzSeedTiled(f, 48, 32, 16, 0))
	f.Add(fuzzSeedTiled(f, 96, 80, 64, 0))
	f.Add(fuzzSeedTiled(f, 37, 23, 16, 256))
	seed := fuzzSeedTiled(f, 64, 64, 32, 1024)
	f.Add(seed[:len(seed)/2])
	f.Add(seed[:tiledHdrLen+3]) // truncated mid-index
	// A synthetically hostile index: first tile's payload overlaps the
	// index table itself, second escapes the buffer.
	hostile := append([]byte(nil), seed...)
	binary.LittleEndian.PutUint32(hostile[tiledHdrLen:], 0)
	binary.LittleEndian.PutUint32(hostile[tiledHdrLen+4:], 12)
	binary.LittleEndian.PutUint32(hostile[tiledHdrLen+8:], uint32(len(hostile)))
	binary.LittleEndian.PutUint32(hostile[tiledHdrLen+12:], 8)
	f.Add(hostile)
	// A lying tile count over a valid header.
	miscount := append([]byte(nil), seed...)
	binary.LittleEndian.PutUint32(miscount[14:], 9999)
	f.Add(miscount)
	f.Fuzz(func(t *testing.T, data []byte) {
		info, err := Parse(data)
		if err != nil {
			return
		}
		if !IsTiled(data) {
			return // mutated into another profile; the other fuzzers own it
		}
		if !info.Tiled || info.TileSize <= 0 || info.NTiles <= 0 {
			t.Fatalf("Parse accepted tiled stream with inconsistent tile info %+v", info)
		}
		if info.W <= 0 || info.H <= 0 || info.W > 1<<15 || info.H > 1<<15 {
			t.Fatalf("Parse accepted implausible geometry %dx%d", info.W, info.H)
		}
		if info.W*info.H > 1<<16 {
			return // bound the decode work, same cap as FuzzDecodePlane
		}
		// A parsed stream must decode — fully and by region — without
		// panicking, and any success must honour the claimed geometry.
		if plane, w, h, err := DecodePlane(data, 0); err == nil {
			if w != info.W || h != info.H || len(plane) != w*h {
				t.Fatalf("decode geometry %dx%d (len %d) disagrees with header %dx%d",
					w, h, len(plane), info.W, info.H)
			}
		}
		rw, rh := min(info.W, 70), min(info.H, 70)
		if reg, cw, ch, err := DecodeRegion(data, 1, 1, rw, rh); err == nil {
			if len(reg) != cw*ch || cw <= 0 || ch <= 0 || cw > rw || ch > rh {
				t.Fatalf("region decode returned %d samples for %dx%d", len(reg), cw, ch)
			}
		}
	})
}

func FuzzDecodePlane(f *testing.F) {
	f.Add(fuzzSeedStream(f, 32, 32, 0))
	f.Add(fuzzSeedStream(f, 48, 16, 256))
	f.Add(fuzzSeedStream(f, 37, 23, 128))
	f.Add(fuzzSeedTiled(f, 48, 32, 16, 0))
	trunc := fuzzSeedStream(f, 32, 32, 1024)
	f.Add(trunc[:len(trunc)-3])
	f.Add(trunc[:len(trunc)/2])
	f.Fuzz(func(t *testing.T, data []byte) {
		// Bound the decode work: a hostile header may legitimately describe
		// a huge plane (an all-zero giant plane really is a tiny stream), so
		// cap the geometry rather than decode gigabytes per input.
		info, err := Parse(data)
		if err != nil {
			return
		}
		if info.W*info.H > 1<<16 {
			return
		}
		plane, w, h, err := DecodePlane(data, 0)
		if err != nil {
			return
		}
		if w != info.W || h != info.H || len(plane) != w*h {
			t.Fatalf("decode geometry %dx%d (len %d) disagrees with header %dx%d",
				w, h, len(plane), info.W, info.H)
		}
		// Truncated layer decodes must also hold together.
		if _, _, _, err := DecodePlane(data, 1); err != nil {
			t.Fatalf("full decode succeeded but maxLayers=1 failed: %v", err)
		}
	})
}

func FuzzDecodePlaneLossless(f *testing.F) {
	small, err := EncodePlaneLossless(testPlane(3, 24, 24), 24, 24, 3)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(small)
	f.Add(small[:len(small)/2])
	f.Add([]byte("EPL1"))
	f.Fuzz(func(t *testing.T, data []byte) {
		// Same geometry cap as FuzzDecodePlane, via the raw header fields.
		if len(data) >= 8 {
			w := int(binary.LittleEndian.Uint16(data[4:]))
			h := int(binary.LittleEndian.Uint16(data[6:]))
			if w*h > 1<<16 {
				return
			}
		}
		plane, w, h, err := DecodePlaneLossless(data)
		if err != nil {
			return
		}
		if len(plane) != w*h {
			t.Fatalf("lossless decode length %d != %dx%d", len(plane), w, h)
		}
	})
}

// fuzzSeedFrame packs a three-band frame of one profile to seed
// FuzzDecodeFrame from.
func fuzzSeedFrame(tb testing.TB, w, h int, enc func(p []float32) ([]byte, error)) []byte {
	tb.Helper()
	frame, err := EncodeFrame(3, 1, func(b int) ([]byte, error) { return enc(testPlane(uint64(40+b), w, h)) })
	if err != nil {
		tb.Fatal(err)
	}
	return frame
}

// FuzzDecodeFrame drives the one frame decoder, which /v1/decode reaches
// with client bytes. The fuzzer edits band payloads and the band table of
// valid frames; the bands are then re-packed, so the CRC holds and every
// mutation reaches the band decoders instead of stopping at the CRC
// check. A full decode, a one-layer decode and a region decode must not
// panic, and each success must return the frame's band count with one
// geometry for every band.
func FuzzDecodeFrame(f *testing.F) {
	tiled := DefaultOptions()
	tiled.Tiled = true
	tiled.TileSize = 16
	f.Add(fuzzSeedFrame(f, 32, 24, func(p []float32) ([]byte, error) {
		opt := DefaultOptions()
		opt.BudgetBytes = 256
		return EncodePlane(p, 32, 24, opt)
	}))
	f.Add(fuzzSeedFrame(f, 48, 40, func(p []float32) ([]byte, error) { return EncodePlane(p, 48, 40, tiled) }))
	f.Add(fuzzSeedFrame(f, 24, 24, func(p []float32) ([]byte, error) { return EncodePlaneLossless(p, 24, 24, 3) }))
	// Bound the decode work, at FuzzDecodePlane's cap: a few header bytes
	// can claim a huge plane.
	old := MaxDecodePixels
	MaxDecodePixels = 1 << 16
	f.Cleanup(func() { MaxDecodePixels = old })
	f.Fuzz(func(t *testing.T, data []byte) {
		bands, err := container.Codestream(data).SplitNoCRC()
		if err != nil || len(bands) == 0 {
			return
		}
		frame := container.Pack(bands)
		// decoded reports whether a decode succeeded, failing the test if
		// it returned the wrong band count or unequal planes.
		decoded := func(name string, im *raster.Image, err error) bool {
			if err != nil {
				return false
			}
			if im.NumBands() != len(bands) {
				t.Fatalf("%s decode returned %d bands for a %d-band frame", name, im.NumBands(), len(bands))
			}
			for b, p := range im.Pix {
				if len(p) != im.Width*im.Height {
					t.Fatalf("%s decode: band %d holds %d samples for %dx%d", name, b, len(p), im.Width, im.Height)
				}
			}
			return true
		}
		// Every profile's header carries the plane's width and height at
		// offsets 4 and 6; a full decode must return band 0's.
		var w, h int
		if len(bands[0]) >= 8 {
			w, h = int(binary.LittleEndian.Uint16(bands[0][4:])), int(binary.LittleEndian.Uint16(bands[0][6:]))
		}
		ctx := context.Background()
		for _, layers := range []int{0, 1} {
			im, err := DecodeFrame(ctx, frame, nil, layers, 0)
			if decoded("full", im, err) && (im.Width != w || im.Height != h) {
				t.Fatalf("decode at %d layers returned %dx%d; band 0 claims %dx%d", layers, im.Width, im.Height, w, h)
			}
		}
		im, err := DecodeFrameRegion(ctx, frame, nil, 3, 5, 40, 24, 0)
		if decoded("region", im, err) && (im.Width <= 0 || im.Height <= 0 || im.Width > 40 || im.Height > 24) {
			t.Fatalf("region decode returned %dx%d for a 40x24 rectangle", im.Width, im.Height)
		}
	})
}

// TestMaxDecodePixels: a tiny header claiming a huge plane must be
// rejected before any geometry-sized allocation happens.
func TestMaxDecodePixels(t *testing.T) {
	old := MaxDecodePixels
	defer func() { MaxDecodePixels = old }()

	data := fuzzSeedStream(t, 64, 64, 0)
	MaxDecodePixels = 1024 // below the stream's 64*64
	if _, _, _, err := DecodePlane(data, 0); err == nil {
		t.Fatal("expected MaxDecodePixels rejection")
	}
	lossless, err := EncodePlaneLossless(testPlane(2, 64, 64), 64, 64, 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := DecodePlaneLossless(lossless); err == nil {
		t.Fatal("expected lossless MaxDecodePixels rejection")
	}
	MaxDecodePixels = 0 // disabled: both must decode again
	if _, _, _, err := DecodePlane(data, 0); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := DecodePlaneLossless(lossless); err != nil {
		t.Fatal(err)
	}
}

// TestFuzzRegressionBitFlips runs a deterministic sweep of single-bit
// corruptions through both decoders as a cheap always-on stand-in for the
// fuzzers.
func TestFuzzRegressionBitFlips(t *testing.T) {
	data := fuzzSeedStream(t, 32, 32, 1024)
	for pos := 0; pos < len(data); pos++ {
		corrupt := append([]byte(nil), data...)
		corrupt[pos] ^= 0x40
		_, _, _, _ = DecodePlane(corrupt, 0) // must not panic
	}
	lossless, err := EncodePlaneLossless(testPlane(5, 24, 24), 24, 24, 3)
	if err != nil {
		t.Fatal(err)
	}
	for pos := 0; pos < len(lossless); pos++ {
		corrupt := append([]byte(nil), lossless...)
		corrupt[pos] ^= 0x04
		_, _, _, _ = DecodePlaneLossless(corrupt) // must not panic
	}
	tiled := fuzzSeedTiled(t, 48, 32, 16, 512)
	for pos := 0; pos < len(tiled); pos++ {
		corrupt := append([]byte(nil), tiled...)
		corrupt[pos] ^= 0x40
		_, _, _, _ = DecodePlane(corrupt, 0)             // must not panic
		_, _, _, _ = DecodeRegion(corrupt, 8, 8, 16, 16) // nor the region path
	}
}
