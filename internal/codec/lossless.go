package codec

import (
	"encoding/binary"
	"math"

	"earthplus/internal/eperr"
	"earthplus/internal/wavelet"
)

// Lossless mode addresses the paper's §8 limitation ("lossy compression may
// not be applicable to applications that require lossless compression"):
// pixels are quantised once to 16-bit samples, transformed with the exactly
// reversible integer CDF 5/3 wavelet, and bit-plane coded without any
// quantiser, so DecodePlaneLossless reproduces the 16-bit samples exactly.
// It shares the pooled scratch arena and the fast bit-plane coder with the
// lossy path.

const losslessMagic = "EPL1"

// losslessScale maps [0,1] floats onto 16-bit samples.
const losslessScale = 65535

// EncodePlaneLossless compresses a [0,1] plane exactly (at 16-bit sample
// precision). There is no rate control: the stream is as long as the
// content demands.
func EncodePlaneLossless(plane []float32, w, h int, levels int) ([]byte, error) {
	if len(plane) != w*h {
		return nil, eperr.New(eperr.BadImage, "codec", "plane length %d != %dx%d", len(plane), w, h)
	}
	if w <= 0 || h <= 0 || w > 1<<15 || h > 1<<15 {
		return nil, eperr.New(eperr.BadImage, "codec", "unsupported dimensions %dx%d", w, h)
	}
	levels = effectiveLevels(w, h, levels)
	g := geometryFor(w, h, levels)
	n := w * h

	s := getScratch()
	defer s.release()
	s.i32 = grow(s.i32, n)
	coeffs := s.i32
	for i, v := range plane {
		x := math.Round(float64(v) * losslessScale)
		if x < 0 {
			x = 0
		} else if x > losslessScale {
			x = losslessScale
		}
		coeffs[i] = int32(x)
	}
	wavelet.Forward53(coeffs, w, h, levels)

	s.q = grow(s.q, n)
	s.neg = grow(s.neg, n)
	s.sbPlanes = grow(s.sbPlanes, len(g.sbs))
	maxPlane := 0
	for si := range g.sbs {
		sb := &g.sbs[si]
		var sbMax uint32
		for y := sb.Y0; y < sb.Y1; y++ {
			crow := coeffs[y*w+sb.X0 : y*w+sb.X1]
			qrow := s.q[y*w+sb.X0 : y*w+sb.X1]
			nrow := s.neg[y*w+sb.X0 : y*w+sb.X1]
			for x, c := range crow {
				isNeg := c < 0
				if isNeg {
					c = -c
				}
				nrow[x] = isNeg
				qv := uint32(c)
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

	out := make([]byte, 0, 11+len(g.sbs)+w*h/2)
	out = append(out, losslessMagic...)
	out = binary.LittleEndian.AppendUint16(out, uint16(w))
	out = binary.LittleEndian.AppendUint16(out, uint16(h))
	out = append(out, uint8(levels), uint8(maxPlane), uint8(len(g.sbs)))
	out = append(out, s.sbPlanes...)

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
	enc := &s.enc
	enc.Reset(s.encBuf)
	for p := maxPlane - 1; p >= 0; p-- {
		pc.encodePass(enc, p, 0)
	}
	s.pend = pc.pend
	pl := enc.Flush()
	s.encBuf = pl
	return append(out, pl...), nil
}

// DecodePlaneLossless reverses EncodePlaneLossless exactly (at 16-bit
// sample precision).
func DecodePlaneLossless(data []byte) ([]float32, int, int, error) {
	return decodePlaneLossless(data, nil)
}

// decodePlaneLossless reconstructs into dst when it has the capacity,
// allocating otherwise.
func decodePlaneLossless(data []byte, dst []float32) ([]float32, int, int, error) {
	if len(data) < 11 || string(data[:4]) != losslessMagic {
		return nil, 0, 0, eperr.New(eperr.BadCodestream, "codec", "bad lossless magic or truncated header")
	}
	w := int(binary.LittleEndian.Uint16(data[4:]))
	h := int(binary.LittleEndian.Uint16(data[6:]))
	levels := int(data[8])
	maxPlane := int(data[9])
	nSb := int(data[10])
	if w <= 0 || h <= 0 || w > 1<<15 || h > 1<<15 {
		return nil, 0, 0, eperr.New(eperr.BadCodestream, "codec", "implausible lossless geometry %dx%d", w, h)
	}
	if levels != effectiveLevels(w, h, levels) {
		return nil, 0, 0, eperr.New(eperr.BadCodestream, "codec", "implausible lossless level count %d for %dx%d", levels, w, h)
	}
	if maxPlane > 32 {
		return nil, 0, 0, eperr.New(eperr.BadCodestream, "codec", "implausible lossless plane count %d", maxPlane)
	}
	if MaxDecodePixels > 0 && w*h > MaxDecodePixels {
		return nil, 0, 0, eperr.New(eperr.BadCodestream, "codec", "%dx%d plane exceeds MaxDecodePixels %d", w, h, MaxDecodePixels)
	}
	g := geometryFor(w, h, levels)
	if len(g.sbs) != nSb || len(data) < 11+nSb {
		return nil, 0, 0, eperr.New(eperr.BadCodestream, "codec", "lossless subband table mismatch")
	}
	n := w * h
	payload := data[11+nSb:]

	s := getScratch()
	defer s.release()
	s.sbPlanes = append(s.sbPlanes[:0], data[11:11+nSb]...)
	s.q = grow(s.q, n)
	clear(s.q)
	s.neg = grow(s.neg, n)
	clear(s.neg)
	s.sig = grow(s.sig, n)
	clear(s.sig)
	s.rowSig = grow(s.rowSig, g.rowTotal)
	clear(s.rowSig)
	sigP, refP := s.probs()
	pc := planeCoder{
		w: w, sbs: g.sbs, sbPlanes: s.sbPlanes, rowOff: g.rowOff,
		q: s.q, neg: s.neg, sig: s.sig, rowSig: s.rowSig,
		pend: s.pend[:0], sigP: sigP, refP: refP,
	}
	dec := &s.dec
	dec.Reset(payload)
	for p := maxPlane - 1; p >= 0; p-- {
		pc.decodePass(dec, p, ^uint32(0), nil)
	}
	s.pend = pc.pend

	s.i32 = grow(s.i32, n)
	coeffs := s.i32
	for i := range coeffs {
		c := int32(s.q[i])
		if s.neg[i] {
			c = -c
		}
		coeffs[i] = c
	}
	wavelet.Inverse53(coeffs, w, h, levels)
	plane := grow(dst, n)
	for i, c := range coeffs {
		plane[i] = float32(c) / losslessScale
	}
	return plane, w, h, nil
}

// Quantize16 returns the 16-bit sample a [0,1] value maps to in lossless
// mode; equality of Quantize16 values is the lossless guarantee.
func Quantize16(v float32) uint16 {
	x := math.Round(float64(v) * losslessScale)
	if x < 0 {
		return 0
	}
	if x > losslessScale {
		return losslessScale
	}
	return uint16(x)
}
