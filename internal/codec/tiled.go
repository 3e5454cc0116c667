package codec

// The tiled profile ("EPT1") is the codec's second codestream format,
// following the RemoteFX/JPEG-2000 shape: the plane is cut into fixed
// square tiles (64x64 by default, the paper's §3 tile granularity), each
// tile is wavelet-lifted and entropy-coded independently with bounded
// per-tile scratch, and a tile-index table (offset+length per tile) up
// front lets a reader decode any sub-rectangle by touching only the tiles
// it intersects. Entropy coding is the RLGR fast path (rlgr.go) instead of
// the monolithic profile's adaptive arithmetic coder: one cheap pass per
// coefficient, which on the mostly-zero high-frequency subbands trades a
// little rate for a large constant-factor speedup and exposes
// embarrassing per-tile parallelism.
//
// Stream layout (all integers little-endian):
//
//	offset  size  field
//	0       4     magic "EPT1"
//	4       2     width            (same offsets as EPC1/EPL1, so frame
//	6       2     height            dimension sniffing works unchanged)
//	8       1     requested DWT levels (clamped per tile geometry)
//	9       4     BaseStep (float32)
//	13      1     tile size in pixels
//	14      4     tile count (must equal the cover implied by w,h,tile)
//	18      8*n   tile index: {offset uint32, length uint32} per tile,
//	              row-major; offsets are absolute, payloads must follow
//	              the index, in order, without overlapping
//	...           tile payloads (RLGR codestreams; empty = all-zero tile)
//
// Rate control splits the plane budget across tiles proportionally to
// tile area; each tile's RLGR stream is cleanly truncated at its share
// (coarse-to-fine subband order, so dropped bits are the finest detail).
// Edge tiles are clamped, so any plane geometry the monolithic profile
// accepts works here too.

import (
	"encoding/binary"
	"math"
	"sync"

	"earthplus/internal/eperr"
	"earthplus/internal/raster"
	"earthplus/internal/wavelet"
)

const (
	tiledMagic  = "EPT1"
	tiledHdrLen = 18
	// tiledIndexEntry is the per-tile cost of the index table.
	tiledIndexEntry = 8
)

// IsTiled reports whether data carries the tiled codestream profile.
func IsTiled(data []byte) bool {
	return len(data) >= 4 && string(data[:4]) == tiledMagic
}

// tileScratch is the bounded per-tile working set: one tile's float
// coefficients and its linearised quantised values. Tiles are at most
// tile^2 samples, so pooled entries stay cache-sized.
type tileScratch struct {
	f32 []float32
	i32 []int32
}

var tileScratchPool = sync.Pool{New: func() any { return new(tileScratch) }}

func getTileScratch() *tileScratch { return tileScratchPool.Get().(*tileScratch) }

func putTileScratch(ts *tileScratch) { tileScratchPool.Put(ts) }

// tiledParsed is a validated EPT1 header plus the per-tile payload slices
// (views into the caller's buffer).
type tiledParsed struct {
	w, h     int
	tile     int
	levels   int
	baseStep float64
	cols     int
	rows     int
	payloads [][]byte
}

func (p *tiledParsed) nTiles() int { return p.cols * p.rows }

// parseTiled validates an EPT1 stream: header plausibility, tile count
// against the implied cover, and a tile index whose payloads all live
// inside the buffer, follow the index, and do not overlap.
func parseTiled(data []byte) (*tiledParsed, error) {
	if len(data) < tiledHdrLen || string(data[:4]) != tiledMagic {
		return nil, eperr.New(eperr.BadCodestream, "codec", "bad tiled magic or truncated header")
	}
	p := &tiledParsed{
		w:        int(binary.LittleEndian.Uint16(data[4:])),
		h:        int(binary.LittleEndian.Uint16(data[6:])),
		levels:   int(data[8]),
		baseStep: float64(math.Float32frombits(binary.LittleEndian.Uint32(data[9:]))),
		tile:     int(data[13]),
	}
	if p.w <= 0 || p.h <= 0 || p.w > 1<<15 || p.h > 1<<15 || p.baseStep <= 0 || p.tile <= 0 {
		return nil, eperr.New(eperr.BadCodestream, "codec",
			"implausible tiled header %dx%d tile %d step %v", p.w, p.h, p.tile, p.baseStep)
	}
	p.cols = raster.TileSpan(p.w, p.tile)
	p.rows = raster.TileSpan(p.h, p.tile)
	n := p.nTiles()
	if stored := int(binary.LittleEndian.Uint32(data[14:])); stored != n {
		return nil, eperr.New(eperr.BadCodestream, "codec",
			"tile count %d does not match %dx%d cover of %d", stored, p.w, p.h, n)
	}
	payloadStart := tiledHdrLen + tiledIndexEntry*n
	if len(data) < payloadStart {
		return nil, eperr.New(eperr.BadCodestream, "codec", "truncated tile index (%d tiles)", n)
	}
	p.payloads = make([][]byte, n)
	prevEnd := uint64(payloadStart)
	for t := 0; t < n; t++ {
		off := uint64(binary.LittleEndian.Uint32(data[tiledHdrLen+tiledIndexEntry*t:]))
		ln := uint64(binary.LittleEndian.Uint32(data[tiledHdrLen+tiledIndexEntry*t+4:]))
		if off < prevEnd || off+ln > uint64(len(data)) {
			return nil, eperr.New(eperr.BadCodestream, "codec",
				"tile %d payload [%d,%d) escapes or overlaps (stream %d bytes)", t, off, off+ln, len(data))
		}
		p.payloads[t] = data[off : off+ln : off+ln]
		prevEnd = off + ln
	}
	return p, nil
}

// tileBudgets splits a whole-plane byte budget across tiles proportionally
// to tile area, after the fixed header+index cost. A nil result means no
// rate control.
func tileBudgets(w, h, tile, budget int) ([]int, error) {
	if budget <= 0 {
		return nil, nil
	}
	cols, rows := raster.TileSpan(w, tile), raster.TileSpan(h, tile)
	n := cols * rows
	fixed := tiledHdrLen + tiledIndexEntry*n
	if budget < fixed {
		return nil, eperr.New(eperr.BudgetTooSmall, "codec",
			"budget %d bytes cannot hold the %d-byte tiled header and index", budget, fixed)
	}
	avail := budget - fixed
	out := make([]int, n)
	total := w * h
	for t := range out {
		x0, y0, x1, y1 := raster.ClampedTileBounds(w, h, tile, t)
		b := avail * ((x1 - x0) * (y1 - y0)) / total
		if b < 1 {
			b = 1 // a 1-byte floor keeps at least the coarsest run bits
		}
		out[t] = b
	}
	return out, nil
}

// encodeTile lifts, quantises and RLGR-codes one clamped tile of plane.
// An all-zero quantised tile returns nil (a zero-length payload).
func encodeTile(plane []float32, w int, x0, y0, x1, y1 int, reqLevels int, baseStep float64, budget int) []byte {
	tw, th := x1-x0, y1-y0
	n := tw * th
	ts := getTileScratch()
	defer putTileScratch(ts)
	ts.f32 = grow(ts.f32, n)
	for dy := 0; dy < th; dy++ {
		copy(ts.f32[dy*tw:(dy+1)*tw], plane[(y0+dy)*w+x0:(y0+dy)*w+x1])
	}
	lv := effectiveLevels(tw, th, reqLevels)
	wavelet.Forward97(ts.f32, tw, th, lv)
	g := geometryFor(tw, th, lv)
	norms := g.subbandNorms(tw, th, lv)

	// Quantise in float32: tiles are at most 2^16 samples and magnitudes
	// at most 2^24, both exactly representable, and the single-precision
	// multiply is the difference between this loop and the wavelet
	// dominating the per-tile cost. int32 conversion truncates toward
	// zero, which IS the dead-zone quantiser.
	ts.i32 = grow(ts.i32, n)
	idx := 0
	var orAcc int32
	for si := range g.sbs {
		sb := &g.sbs[si]
		inv := float32(norms[si] / baseStep)
		const lim = float32(rlgrMaxMag)
		for y := sb.Y0; y < sb.Y1; y++ {
			row := ts.f32[y*tw+sb.X0 : y*tw+sb.X1]
			out := ts.i32[idx : idx+len(row)]
			idx += len(row)
			for i, cf := range row {
				x := cf * inv
				var q int32
				if x < lim && x > -lim {
					q = int32(x)
				} else if x >= lim {
					q = rlgrMaxMag
				} else if x <= -lim {
					q = -rlgrMaxMag
				}
				// (NaN fails every comparison and quantises to zero, so
				// hostile planes stay deterministic.)
				out[i] = q
				orAcc |= q
			}
		}
	}
	if orAcc == 0 {
		return nil
	}
	return rlgrEncode(nil, ts.i32[:idx], budget)
}

// decodeTileInto reconstructs one tile payload into dst at (x0,y0), where
// dst is a row-major dstW-wide plane. Only samples inside the given clip
// rectangle [cx0,cx1) x [cy0,cy1) (plane coordinates) are written, offset
// by (-ox, -oy): region decodes pass their output origin so tiles land in
// a cropped plane.
func decodeTileInto(dst []float32, dstW int, x0, y0, x1, y1 int, payload []byte,
	reqLevels int, baseStep float64, cx0, cy0, cx1, cy1, ox, oy int) {
	tw, th := x1-x0, y1-y0
	n := tw * th
	ts := getTileScratch()
	defer putTileScratch(ts)
	ts.f32 = grow(ts.f32, n)
	out := ts.f32
	if len(payload) == 0 {
		clear(out)
	} else {
		lv := effectiveLevels(tw, th, reqLevels)
		g := geometryFor(tw, th, lv)
		norms := g.subbandNorms(tw, th, lv)
		ts.i32 = grow(ts.i32, n)
		rlgrDecode(ts.i32, payload, n)
		idx := 0
		for si := range g.sbs {
			sb := &g.sbs[si]
			step := float32(baseStep / norms[si])
			half := 0.5 * step
			for y := sb.Y0; y < sb.Y1; y++ {
				orow := out[y*tw+sb.X0 : y*tw+sb.X1]
				qrow := ts.i32[idx : idx+len(orow)]
				idx += len(orow)
				for x, q := range qrow {
					switch {
					case q == 0:
						orow[x] = 0
					case q > 0:
						// Reconstruct at the midpoint of the dead-zone
						// quantiser's residual interval.
						orow[x] = float32(q)*step + half
					default:
						orow[x] = float32(q)*step - half
					}
				}
			}
		}
		wavelet.Inverse97(out, tw, th, lv)
	}
	wy0, wy1 := max(y0, cy0), min(y1, cy1)
	wx0, wx1 := max(x0, cx0), min(x1, cx1)
	for y := wy0; y < wy1; y++ {
		copy(dst[(y-oy)*dstW+(wx0-ox):(y-oy)*dstW+(wx1-ox)], out[(y-y0)*tw+(wx0-x0):(y-y0)*tw+(wx1-x0)])
	}
}

// assembleTiled builds the EPT1 stream from per-tile payloads.
func assembleTiled(w, h, tile, levels int, baseStep float64, tiles [][]byte) []byte {
	n := len(tiles)
	size := tiledHdrLen + tiledIndexEntry*n
	for _, t := range tiles {
		size += len(t)
	}
	out := make([]byte, 0, size)
	out = append(out, tiledMagic...)
	out = binary.LittleEndian.AppendUint16(out, uint16(w))
	out = binary.LittleEndian.AppendUint16(out, uint16(h))
	out = append(out, uint8(levels))
	out = binary.LittleEndian.AppendUint32(out, math.Float32bits(float32(baseStep)))
	out = append(out, uint8(tile))
	out = binary.LittleEndian.AppendUint32(out, uint32(n))
	off := uint32(tiledHdrLen + tiledIndexEntry*n)
	for _, t := range tiles {
		out = binary.LittleEndian.AppendUint32(out, off)
		out = binary.LittleEndian.AppendUint32(out, uint32(len(t)))
		off += uint32(len(t))
	}
	for _, t := range tiles {
		out = append(out, t...)
	}
	return out
}

// tiledGeometry validates an encode geometry and resolves the tile size.
func tiledGeometry(plane []float32, w, h int, opt Options) (tile int, err error) {
	if len(plane) != w*h {
		return 0, eperr.New(eperr.BadImage, "codec", "plane length %d != %dx%d", len(plane), w, h)
	}
	if w <= 0 || h <= 0 || w > 1<<15 || h > 1<<15 {
		return 0, eperr.New(eperr.BadImage, "codec", "unsupported dimensions %dx%d", w, h)
	}
	if opt.BaseStep <= 0 {
		return 0, eperr.New(eperr.BadConfig, "codec", "BaseStep %v must be positive", opt.BaseStep)
	}
	tile = opt.TileSize
	if tile == 0 {
		tile = raster.DefaultTileSize
	}
	if tile < 0 || tile > 255 {
		return 0, eperr.New(eperr.BadConfig, "codec", "tile size %d out of range [1,255]", tile)
	}
	return tile, nil
}

// TiledEncodePlane compresses a row-major w x h float32 plane into the
// tiled (EPT1) profile. Each tile is coded independently on a bounded
// worker pool of Workers(opt.Parallelism, tiles) goroutines; the output is
// assembled in tile order, so the stream is byte-identical at any worker
// count. opt.BudgetBytes splits across tiles by area.
func TiledEncodePlane(plane []float32, w, h int, opt Options) ([]byte, error) {
	tile, err := tiledGeometry(plane, w, h, opt)
	if err != nil {
		return nil, err
	}
	budgets, err := tileBudgets(w, h, tile, opt.BudgetBytes)
	if err != nil {
		return nil, err
	}
	cols, rows := raster.TileSpan(w, tile), raster.TileSpan(h, tile)
	n := cols * rows
	tiles := make([][]byte, n)
	ParallelBands(opt.Parallelism, n, func(t int) {
		x0, y0, x1, y1 := raster.ClampedTileBounds(w, h, tile, t)
		b := 0
		if budgets != nil {
			b = budgets[t]
		}
		tiles[t] = encodeTile(plane, w, x0, y0, x1, y1, opt.Levels, opt.BaseStep, b)
	})
	return assembleTiled(w, h, tile, opt.Levels, opt.BaseStep, tiles), nil
}

func tiledDecodePlane(data []byte, buf []float32) ([]float32, int, int, error) {
	p, err := parseTiled(data)
	if err != nil {
		return nil, 0, 0, err
	}
	n := p.w * p.h
	if MaxDecodePixels > 0 && n > MaxDecodePixels {
		return nil, 0, 0, eperr.New(eperr.BadCodestream, "codec",
			"%dx%d plane exceeds MaxDecodePixels %d", p.w, p.h, MaxDecodePixels)
	}
	out := grow(buf, n)
	ParallelBands(0, p.nTiles(), func(t int) {
		x0, y0, x1, y1 := raster.ClampedTileBounds(p.w, p.h, p.tile, t)
		decodeTileInto(out, p.w, x0, y0, x1, y1, p.payloads[t],
			p.levels, p.baseStep, 0, 0, p.w, p.h, 0, 0)
	})
	return out, p.w, p.h, nil
}

// DecodeRegion reconstructs the sub-rectangle [x,x+rw) x [y,y+rh) of the
// plane in data, clipped to the plane bounds, and returns the cropped
// row-major plane with its dimensions. For tiled streams only the tiles
// intersecting the rectangle are decoded — O(tiles touched), independent
// of the full plane size; monolithic and lossless streams fall back to a
// full decode plus crop.
func DecodeRegion(data []byte, x, y, rw, rh int) ([]float32, int, int, error) {
	return decodeRegion(data, x, y, rw, rh, nil)
}

// decodeRegion writes the cropped plane into dst when it has the
// capacity, allocating otherwise.
func decodeRegion(data []byte, x, y, rw, rh int, dst []float32) ([]float32, int, int, error) {
	if rw <= 0 || rh <= 0 {
		return nil, 0, 0, eperr.New(eperr.BadImage, "codec", "empty region %dx%d", rw, rh)
	}
	if !IsTiled(data) {
		full, w, h, err := decodeStream(data, 0, nil)
		if err != nil {
			return nil, 0, 0, err
		}
		cx0, cy0 := max(x, 0), max(y, 0)
		cx1, cy1 := min(x+rw, w), min(y+rh, h)
		if cx0 >= cx1 || cy0 >= cy1 {
			return nil, 0, 0, eperr.New(eperr.BadImage, "codec",
				"region (%d,%d)+%dx%d outside %dx%d plane", x, y, rw, rh, w, h)
		}
		cw, ch := cx1-cx0, cy1-cy0
		out := grow(dst, cw*ch)
		for dy := 0; dy < ch; dy++ {
			copy(out[dy*cw:(dy+1)*cw], full[(cy0+dy)*w+cx0:(cy0+dy)*w+cx1])
		}
		return out, cw, ch, nil
	}
	p, err := parseTiled(data)
	if err != nil {
		return nil, 0, 0, err
	}
	cx0, cy0 := max(x, 0), max(y, 0)
	cx1, cy1 := min(x+rw, p.w), min(y+rh, p.h)
	if cx0 >= cx1 || cy0 >= cy1 {
		return nil, 0, 0, eperr.New(eperr.BadImage, "codec",
			"region (%d,%d)+%dx%d outside %dx%d plane", x, y, rw, rh, p.w, p.h)
	}
	cw, ch := cx1-cx0, cy1-cy0
	if MaxDecodePixels > 0 && cw*ch > MaxDecodePixels {
		return nil, 0, 0, eperr.New(eperr.BadCodestream, "codec",
			"%dx%d region exceeds MaxDecodePixels %d", cw, ch, MaxDecodePixels)
	}
	out := grow(dst, cw*ch)
	c0, r0, c1, r1 := raster.TileRange(p.w, p.h, p.tile, cx0, cy0, cx1, cy1)
	nt := (c1 - c0) * (r1 - r0)
	ParallelBands(0, nt, func(i int) {
		c := c0 + i%(c1-c0)
		r := r0 + i/(c1-c0)
		t := r*p.cols + c
		x0, y0, x1, y1 := raster.ClampedTileBounds(p.w, p.h, p.tile, t)
		decodeTileInto(out, cw, x0, y0, x1, y1, p.payloads[t],
			p.levels, p.baseStep, cx0, cy0, cx1, cy1, cx0, cy0)
	})
	return out, cw, ch, nil
}

// TiledSplicePlane applies an update to one band of the tiled stream old.
// plane is the band's new content at old's geometry, and the caller
// guarantees that outside the tiles marked in changed it equals old's
// decode clamped to [0,1], as every reference decode is: a mirror of old
// with the update's changed tiles overlaid. The codec tiles that
// intersect a tile marked in changed are re-encoded straight from plane,
// and every other tile's payload bytes are reused verbatim, so no old
// payload is decoded. Each re-encoded tile's decode, clamped to [0,1], is
// then written back into plane, so on return plane holds the new
// stream's clamped decode. changed may use any tile size over the same
// plane (change masks run at the detection grid, the codestream at the
// codec grid). opt must carry the rate-control parameters of the original
// encode so re-encoded tiles get the same per-tile budget. It returns the
// new stream, the number of re-encoded tiles and the stream's tile count.
func TiledSplicePlane(old []byte, plane []float32, changed *raster.TileMask, opt Options) (data []byte, reencoded, total int, err error) {
	p, err := parseTiled(old)
	if err != nil {
		return nil, 0, 0, err
	}
	if len(plane) != p.w*p.h {
		return nil, 0, 0, eperr.New(eperr.BadImage, "codec", "plane length %d != %dx%d", len(plane), p.w, p.h)
	}
	g := changed.Grid
	if g.ImageW != p.w || g.ImageH != p.h {
		return nil, 0, 0, eperr.New(eperr.BadImage, "codec",
			"changed mask grid %dx%d does not match stream %dx%d", g.ImageW, g.ImageH, p.w, p.h)
	}
	// Project the changed mask onto the codec tile grid.
	n := p.nTiles()
	redo := make([]bool, n)
	for t, set := range changed.Set {
		if !set {
			continue
		}
		mx0, my0, mx1, my1 := g.Bounds(t)
		c0, r0, c1, r1 := raster.TileRange(p.w, p.h, p.tile, mx0, my0, mx1, my1)
		for r := r0; r < r1; r++ {
			for c := c0; c < c1; c++ {
				if !redo[r*p.cols+c] {
					redo[r*p.cols+c] = true
					reencoded++
				}
			}
		}
	}
	budgets, err := tileBudgets(p.w, p.h, p.tile, opt.BudgetBytes)
	if err != nil {
		return nil, 0, 0, err
	}
	tiles := make([][]byte, n)
	ParallelBands(opt.Parallelism, n, func(t int) {
		if !redo[t] {
			tiles[t] = p.payloads[t]
			return
		}
		x0, y0, x1, y1 := raster.ClampedTileBounds(p.w, p.h, p.tile, t)
		b := 0
		if budgets != nil {
			b = budgets[t]
		}
		tiles[t] = encodeTile(plane, p.w, x0, y0, x1, y1, p.levels, p.baseStep, b)
		decodeTileInto(plane, p.w, x0, y0, x1, y1, tiles[t], p.levels, p.baseStep, 0, 0, p.w, p.h, 0, 0)
		for y := y0; y < y1; y++ {
			raster.ClampPlane(plane[y*p.w+x0 : y*p.w+x1])
		}
	})
	return assembleTiled(p.w, p.h, p.tile, p.levels, p.baseStep, tiles), reencoded, n, nil
}
