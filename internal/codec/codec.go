// Package codec implements the layered wavelet image codec used for every
// encode in the reproduction: on-board encoding of changed tiles, reference
// compression for the uplink, and the baselines' whole-image encoding.
//
// The design mirrors the properties Earth+ needs from JPEG-2000 (§5):
//
//   - CDF 9/7 wavelet transform with dead-zone quantisation,
//   - embedded bit-plane coding with an adaptive binary arithmetic coder,
//     so a byte budget (the paper's bits-per-pixel knob γ) simply truncates
//     the stream at the best available point,
//   - quality layers — one per bit plane — so the ground can decode fewer
//     layers when the downlink degrades ("layered codec", §5),
//   - region-of-interest encoding that packs the changed tiles into a
//     compact mosaic and codes only that (roi.go), matching the paper's
//     "select changed tiles as region-of-interest" strategy.
//
// The implementation is built for the on-board compute envelope: all
// per-call scratch state is pooled (steady-state encodes allocate only the
// returned codestream), the bit-plane scan skips insignificant rows in
// bulk, sign bits travel as batched bypass bits, and multi-band images are
// coded by a bounded worker pool (see Options.Parallelism and the package
// Parallelism default).
//
// frame.go is the one place a multi-band image becomes a container frame
// and back: the rate rule (BandBudget), the frame encoder (EncodeFrame)
// and the frame decoders (DecodeFrame, DecodeFrameRegion, DecodeROIFrame).
package codec

import (
	"encoding/binary"
	"math"
	"sync"

	"earthplus/internal/eperr"
	"earthplus/internal/par"
	"earthplus/internal/raster"
	"earthplus/internal/wavelet"
)

// Options controls one plane encode.
type Options struct {
	// Levels is the number of DWT decomposition levels. It is clamped so
	// the coarsest LL band keeps at least 4 samples per axis.
	Levels int
	// BaseStep is the finest quantiser step in image-domain units. The
	// per-subband step is BaseStep divided by the subband's synthesis
	// norm, equalising image-domain error across subbands.
	BaseStep float64
	// BudgetBytes, when positive, truncates the embedded stream once the
	// codestream reaches the budget. Zero means encode every bit plane.
	// The accounting is exact: the emitted codestream, including header
	// and layer table, never exceeds the budget (provided the budget
	// covers at least the fixed header).
	BudgetBytes int
	// Parallelism bounds the number of bands the frame encoders code
	// concurrently — and, under the tiled profile, the number of tiles
	// coded concurrently within one plane. Zero falls back to the
	// package-level Parallelism default, which itself defaults to
	// GOMAXPROCS.
	Parallelism int
	// Tiled routes EncodePlane through the tiled (EPT1) profile: fixed
	// square tiles coded independently with the RLGR fast path, a
	// tile-index table for region decode, and per-tile rate control. Every
	// decoder in the package sniffs the profile from the stream magic, so
	// readers need no flag.
	Tiled bool
	// TileSize is the tiled profile's tile edge in pixels; zero selects
	// raster.DefaultTileSize (64, the paper's tile granularity).
	TileSize int
}

// DefaultOptions returns the options used throughout the experiments.
func DefaultOptions() Options {
	return Options{Levels: 5, BaseStep: 1.0 / 2048}
}

// BudgetForBPP converts a bits-per-pixel target (the paper's γ) into a byte
// budget for a w x h plane.
func BudgetForBPP(bpp float64, w, h int) int {
	return int(bpp * float64(w) * float64(h) / 8)
}

// MinBudgetBytes is the smallest per-band byte budget any call site may
// request: enough for the fixed codestream header plus at least one coded
// layer at every geometry the encoder accepts. BandBudget, the rate rule
// of the ROI downlink, the reference uplink and the reference store,
// floors at it, and the public API's per-band validation rejects budgets
// below it.
const MinBudgetBytes = 64

const (
	codecMagic  = "EPC1"
	maxQBits    = 30
	sigContexts = 16 // 4 subband kinds x 4 neighbour-significance counts
	refContexts = 4  // per subband kind
)

// MaxDecodePixels bounds the plane size the decoders will reconstruct. A
// codestream header is a few dozen bytes however large a plane it claims,
// so without a bound a corrupt or hostile stream can demand gigabytes of
// scratch and seconds of inverse-transform work. The default admits every
// geometry the encoder accepts up to 8192x8192; operators decoding from
// untrusted links can tighten it, and 0 disables the check entirely.
var MaxDecodePixels = 1 << 26

// Parallelism is the package-wide default for the number of bands encoded
// or decoded concurrently when Options.Parallelism is zero. Values <= 0
// mean GOMAXPROCS. It exists so whole-constellation simulations can turn
// one knob (earthplus-bench -parallel) without threading an option through
// every call site.
var Parallelism int

// Workers resolves a requested parallelism against n independent band or
// tile tasks: 0 takes the package Parallelism default, and par.Workers
// resolves the rest (GOMAXPROCS, clamped to [1, n]).
func Workers(requested, n int) int {
	if requested <= 0 {
		requested = Parallelism
	}
	return par.Workers(requested, n)
}

// ParallelBands runs fn(b) for every band index in [0, n) on
// Workers(requested, n) goroutines of the shared pool. fn must be safe to
// call concurrently for distinct b.
func ParallelBands(requested, n int, fn func(b int)) { par.For(Workers(requested, n), n, fn) }

// geometry is the per-(w,h,levels) immutable decomposition description: the
// subband list, the row-offset table of the bit-plane coder's significance
// counters, and (lazily, since only the lossy path needs them) the subband
// synthesis norms. Computing the norms costs one inverse transform per
// subband, so geometries are cached for the life of the process.
type geometry struct {
	sbs      []wavelet.Subband
	rowOff   []int32
	rowTotal int
	normOnce sync.Once
	norms    []float64
}

var geomCache sync.Map // geomKey -> *geometry

type geomKey struct{ w, h, levels int }

func geometryFor(w, h, levels int) *geometry {
	key := geomKey{w, h, levels}
	if v, ok := geomCache.Load(key); ok {
		return v.(*geometry)
	}
	sbs := wavelet.Subbands(w, h, levels)
	g := &geometry{sbs: sbs, rowOff: make([]int32, len(sbs))}
	rows := 0
	for i, sb := range sbs {
		g.rowOff[i] = int32(rows)
		rows += sb.Height()
	}
	g.rowTotal = rows
	actual, _ := geomCache.LoadOrStore(key, g)
	return actual.(*geometry)
}

// subbandNorms returns the memoised synthesis norms for this geometry.
func (g *geometry) subbandNorms(w, h, levels int) []float64 {
	g.normOnce.Do(func() {
		norms := make([]float64, len(g.sbs))
		for i, sb := range g.sbs {
			norms[i] = wavelet.SynthesisNorm(w, h, levels, sb)
		}
		g.norms = norms
	})
	return g.norms
}

// effectiveLevels clamps the requested level count so the coarsest LL band
// stays at least 4 samples wide/tall (or 0 levels for tiny planes).
func effectiveLevels(w, h, requested int) int {
	l := 0
	for l < requested && w >= 8 && h >= 8 {
		w, h = (w+1)/2, (h+1)/2
		l++
	}
	return l
}

// EncodePlane compresses a row-major w x h float32 plane and returns the
// codestream. Values are expected in roughly [0,1]; anything finite works.
// opt.Tiled selects the tiled (EPT1) profile; the default remains the
// monolithic profile, byte-for-byte.
func EncodePlane(plane []float32, w, h int, opt Options) ([]byte, error) {
	if opt.Tiled {
		return TiledEncodePlane(plane, w, h, opt)
	}
	if len(plane) != w*h {
		return nil, eperr.New(eperr.BadImage, "codec", "plane length %d != %dx%d", len(plane), w, h)
	}
	if w <= 0 || h <= 0 || w > 1<<15 || h > 1<<15 {
		return nil, eperr.New(eperr.BadImage, "codec", "unsupported dimensions %dx%d", w, h)
	}
	if opt.BaseStep <= 0 {
		return nil, eperr.New(eperr.BadConfig, "codec", "BaseStep %v must be positive", opt.BaseStep)
	}
	levels := effectiveLevels(w, h, opt.Levels)
	g := geometryFor(w, h, levels)
	norms := g.subbandNorms(w, h, levels)
	n := w * h

	s := getScratch()
	defer s.release()
	s.f32 = grow(s.f32, n)
	coeffs := s.f32
	copy(coeffs, plane)
	wavelet.Forward97(coeffs, w, h, levels)

	// Dead-zone quantisation into magnitude+sign.
	s.q = grow(s.q, n)
	s.neg = grow(s.neg, n)
	s.sbPlanes = grow(s.sbPlanes, len(g.sbs))
	maxPlane := 0
	for si := range g.sbs {
		sb := &g.sbs[si]
		inv := norms[si] / opt.BaseStep // 1/step
		var sbMax uint32
		for y := sb.Y0; y < sb.Y1; y++ {
			row := coeffs[y*w+sb.X0 : y*w+sb.X1]
			qrow := s.q[y*w+sb.X0 : y*w+sb.X1]
			nrow := s.neg[y*w+sb.X0 : y*w+sb.X1]
			for x, cf := range row {
				c := float64(cf)
				isNeg := c < 0
				if isNeg {
					c = -c
				}
				nrow[x] = isNeg
				v := uint64(c * inv)
				if v > (1<<maxQBits)-1 {
					v = (1 << maxQBits) - 1
				}
				qv := uint32(v)
				qrow[x] = qv
				if qv > sbMax {
					sbMax = qv
				}
			}
		}
		s.sbPlanes[si] = uint8(bitsFor(sbMax))
		if int(s.sbPlanes[si]) > maxPlane {
			maxPlane = int(s.sbPlanes[si])
		}
	}

	// Header (layer table appended after encoding). The header is at most
	// 15 + 3*levels+1 bytes, which fits the stack buffer for every legal
	// geometry.
	var hdrArr [64]byte
	hdr := append(hdrArr[:0], codecMagic...)
	hdr = binary.LittleEndian.AppendUint16(hdr, uint16(w))
	hdr = binary.LittleEndian.AppendUint16(hdr, uint16(h))
	hdr = append(hdr, uint8(levels))
	hdr = binary.LittleEndian.AppendUint32(hdr, math.Float32bits(float32(opt.BaseStep)))
	hdr = append(hdr, uint8(maxPlane), uint8(len(g.sbs)))
	hdr = append(hdr, s.sbPlanes...)

	sigP, refP := s.probs()
	s.sig = grow(s.sig, n)
	clear(s.sig)
	s.rowSig = grow(s.rowSig, g.rowTotal)
	clear(s.rowSig)
	pc := planeCoder{
		w: w, sbs: g.sbs, sbPlanes: s.sbPlanes, rowOff: g.rowOff,
		q: s.q, neg: s.neg, sig: s.sig, rowSig: s.rowSig,
		pend: s.pend[:0], sigP: sigP, refP: refP,
	}

	s.layers = s.layers[:0]
	s.payload = s.payload[:0]
	fixed := len(hdr) + 1 // +1 for the layer-count byte
	if opt.BudgetBytes > 0 && opt.BudgetBytes < fixed {
		return nil, eperr.New(eperr.BudgetTooSmall, "codec",
			"budget %d bytes cannot hold the %d-byte codestream header", opt.BudgetBytes, fixed)
	}
	enc := &s.enc
	truncated := false
	for p := maxPlane - 1; p >= 0 && !truncated; p-- {
		limit := 0
		if opt.BudgetBytes > 0 {
			// Exact rate control: whatever this layer flushes to, plus its
			// 8-byte table entry, plus everything already committed, must
			// stay within the budget.
			limit = opt.BudgetBytes - fixed - 8*(len(s.layers)+1) - len(s.payload)
			if limit <= 5+budgetMargin { // 5 = empty-stream flush tail
				break
			}
		}
		enc.Reset(s.encBuf)
		symbols, trunc := pc.encodePass(enc, p, limit)
		truncated = trunc
		pl := enc.Flush()
		s.encBuf = pl
		if symbols > 0 {
			s.layers = append(s.layers, layerMeta{bytes: uint32(len(pl)), symbols: symbols})
			s.payload = append(s.payload, pl...)
		}
	}
	s.pend = pc.pend

	out := make([]byte, 0, fixed+8*len(s.layers)+len(s.payload))
	out = append(out, hdr...)
	out = append(out, uint8(len(s.layers)))
	for _, l := range s.layers {
		out = binary.LittleEndian.AppendUint32(out, l.bytes)
		out = binary.LittleEndian.AppendUint32(out, l.symbols)
	}
	out = append(out, s.payload...)
	return out, nil
}

// bitsFor returns the number of bits needed to represent v (0 -> 0).
func bitsFor(v uint32) int {
	n := 0
	for v > 0 {
		n++
		v >>= 1
	}
	return n
}

// Info describes a parsed codestream header.
type Info struct {
	W, H     int
	Levels   int
	BaseStep float64
	MaxPlane int
	NLayers  int
	// LayerBytes holds each quality layer's payload size; truncating the
	// decode after k layers reads only the first k payloads.
	LayerBytes []int
	// Tiled reports the tiled (EPT1) profile; TileSize and NTiles then
	// describe its grid. Tiled streams carry no quality layers, so
	// MaxPlane, NLayers and LayerBytes stay zero.
	Tiled    bool
	TileSize int
	NTiles   int
}

type parsed struct {
	Info
	sbPlanes []uint8
	symbols  []uint32
	payloads [][]byte
}

// Parse validates a codestream and returns its header description. Both
// the monolithic and tiled profiles are recognised.
func Parse(data []byte) (Info, error) {
	if IsTiled(data) {
		tp, err := parseTiled(data)
		if err != nil {
			return Info{}, err
		}
		return Info{
			W: tp.w, H: tp.h, Levels: tp.levels, BaseStep: tp.baseStep,
			Tiled: true, TileSize: tp.tile, NTiles: tp.nTiles(),
		}, nil
	}
	p := new(parsed)
	if err := parseInto(p, data); err != nil {
		return Info{}, err
	}
	return p.Info, nil
}

// parseInto validates data and fills p, reusing p's slices so a pooled
// parsed can serve many decodes without allocating.
func parseInto(p *parsed, data []byte) error {
	if len(data) < 18 || string(data[:4]) != codecMagic {
		return eperr.New(eperr.BadCodestream, "codec", "bad magic or truncated header")
	}
	p.W = int(binary.LittleEndian.Uint16(data[4:]))
	p.H = int(binary.LittleEndian.Uint16(data[6:]))
	p.Levels = int(data[8])
	p.BaseStep = float64(math.Float32frombits(binary.LittleEndian.Uint32(data[9:])))
	p.MaxPlane = int(data[13])
	nSb := int(data[14])
	if p.W <= 0 || p.H <= 0 || p.W > 1<<15 || p.H > 1<<15 || p.BaseStep <= 0 {
		return eperr.New(eperr.BadCodestream, "codec", "implausible header %dx%d step %v", p.W, p.H, p.BaseStep)
	}
	// The encoder always clamps the level count to the geometry and the
	// plane count to the quantiser width; enforce both so corrupt headers
	// cannot demand absurd decode work.
	if p.Levels != effectiveLevels(p.W, p.H, p.Levels) {
		return eperr.New(eperr.BadCodestream, "codec", "implausible level count %d for %dx%d", p.Levels, p.W, p.H)
	}
	if p.MaxPlane > maxQBits+1 {
		return eperr.New(eperr.BadCodestream, "codec", "implausible plane count %d", p.MaxPlane)
	}
	off := 15
	if len(data) < off+nSb+1 {
		return eperr.New(eperr.BadCodestream, "codec", "truncated subband table")
	}
	p.sbPlanes = append(p.sbPlanes[:0], data[off:off+nSb]...)
	for _, sp := range p.sbPlanes {
		if int(sp) > p.MaxPlane {
			return eperr.New(eperr.BadCodestream, "codec", "subband plane count %d exceeds stream maximum %d", sp, p.MaxPlane)
		}
	}
	off += nSb
	p.NLayers = int(data[off])
	off++
	// One quality layer per bit plane, and no layer can carry more scan
	// symbols than the plane has samples — anything else is corruption,
	// and rejecting it here bounds the decoder's work on hostile input.
	if p.NLayers > p.MaxPlane {
		return eperr.New(eperr.BadCodestream, "codec", "%d layers for %d bit planes", p.NLayers, p.MaxPlane)
	}
	if len(data) < off+8*p.NLayers {
		return eperr.New(eperr.BadCodestream, "codec", "truncated layer table")
	}
	p.LayerBytes = grow(p.LayerBytes, p.NLayers)
	p.symbols = grow(p.symbols, p.NLayers)
	p.payloads = grow(p.payloads, p.NLayers)
	for i := 0; i < p.NLayers; i++ {
		p.LayerBytes[i] = int(binary.LittleEndian.Uint32(data[off:]))
		p.symbols[i] = binary.LittleEndian.Uint32(data[off+4:])
		if int64(p.symbols[i]) > int64(p.W)*int64(p.H) {
			return eperr.New(eperr.BadCodestream, "codec", "layer %d claims %d symbols for %dx%d", i, p.symbols[i], p.W, p.H)
		}
		off += 8
	}
	for i := 0; i < p.NLayers; i++ {
		if len(data) < off+p.LayerBytes[i] {
			return eperr.New(eperr.BadCodestream, "codec", "truncated layer %d payload", i)
		}
		p.payloads[i] = data[off : off+p.LayerBytes[i]]
		off += p.LayerBytes[i]
	}
	// The geometry is cached, so this count check costs nothing after the
	// first stream of a given shape.
	if len(geometryFor(p.W, p.H, p.Levels).sbs) != nSb {
		return eperr.New(eperr.BadCodestream, "codec", "subband count %d does not match geometry", nSb)
	}
	return nil
}

// DecodePlane reconstructs a plane from a codestream. maxLayers <= 0 (or
// beyond the stream's layer count) decodes every layer; smaller values give
// the layered codec's reduced-quality renditions.
func DecodePlane(data []byte, maxLayers int) ([]float32, int, int, error) {
	return decodePlane(data, maxLayers, nil)
}

// decodePlane reconstructs into buf when it has the capacity (the frame
// and ROI decoders pass a destination to avoid a copy), allocating
// otherwise. The destination is fully overwritten. Tiled streams are
// recognised by magic and routed to the tiled decoder (which has no
// quality layers, so maxLayers is ignored there).
func decodePlane(data []byte, maxLayers int, buf []float32) ([]float32, int, int, error) {
	if IsTiled(data) {
		return tiledDecodePlane(data, buf)
	}
	s := getScratch()
	defer s.release()
	p := &s.prs
	if err := parseInto(p, data); err != nil {
		return nil, 0, 0, err
	}
	w, h := p.W, p.H
	n := w * h
	if MaxDecodePixels > 0 && n > MaxDecodePixels {
		return nil, 0, 0, eperr.New(eperr.BadCodestream, "codec", "%dx%d plane exceeds MaxDecodePixels %d", w, h, MaxDecodePixels)
	}
	g := geometryFor(w, h, p.Levels)
	norms := g.subbandNorms(w, h, p.Levels)

	nLayers := p.NLayers
	if maxLayers > 0 && maxLayers < nLayers {
		nLayers = maxLayers
	}
	s.q = grow(s.q, n)
	clear(s.q)
	s.neg = grow(s.neg, n)
	clear(s.neg)
	s.sig = grow(s.sig, n)
	clear(s.sig)
	s.pStop = grow(s.pStop, n)
	for i := range s.pStop {
		s.pStop[i] = uint8(p.MaxPlane)
	}
	s.rowSig = grow(s.rowSig, g.rowTotal)
	clear(s.rowSig)
	sigP, refP := s.probs()
	pc := planeCoder{
		w: w, sbs: g.sbs, sbPlanes: p.sbPlanes, rowOff: g.rowOff,
		q: s.q, neg: s.neg, sig: s.sig, rowSig: s.rowSig,
		pend: s.pend[:0], sigP: sigP, refP: refP,
	}
	dec := &s.dec
	for li := 0; li < nLayers; li++ {
		plane := p.MaxPlane - 1 - li
		if plane < 0 {
			break
		}
		dec.Reset(p.payloads[li])
		pc.decodePass(dec, plane, p.symbols[li], s.pStop)
	}
	s.pend = pc.pend

	out := grow(buf, n)
	for si := range g.sbs {
		sb := &g.sbs[si]
		step := p.BaseStep / norms[si]
		for y := sb.Y0; y < sb.Y1; y++ {
			qrow := s.q[y*w+sb.X0 : y*w+sb.X1]
			nrow := s.neg[y*w+sb.X0 : y*w+sb.X1]
			prow := s.pStop[y*w+sb.X0 : y*w+sb.X1]
			orow := out[y*w+sb.X0 : y*w+sb.X1]
			for x, qv := range qrow {
				if qv == 0 {
					orow[x] = 0
					continue
				}
				// q holds the decoded bits at their true positions; the
				// remaining planes below pStop are unknown, so reconstruct
				// at the midpoint of the residual interval.
				mag := (float64(qv) + 0.5*float64(uint64(1)<<prow[x])) * step
				if nrow[x] {
					mag = -mag
				}
				orow[x] = float32(mag)
			}
		}
	}
	wavelet.Inverse97(out, w, h, p.Levels)
	return out, w, h, nil
}

// ZeroOutsideROI clears every tile not marked in roi, in every band. The
// wavelet transform then spends almost no bits on those regions, which is
// how the codec realises the paper's region-of-interest encoding.
func ZeroOutsideROI(im *raster.Image, roi *raster.TileMask) {
	for t, keep := range roi.Set {
		if keep {
			continue
		}
		for b := 0; b < im.NumBands(); b++ {
			raster.ZeroTile(im, b, roi.Grid, t)
		}
	}
}
