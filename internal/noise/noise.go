// Package noise implements deterministic, seeded value noise and fractal
// Brownian motion (fBm). The synthetic scene generator uses it for terrain
// texture, change patches, and spatially-correlated cloud fields. Everything
// here is a pure function of (seed, coordinates), so scenes are perfectly
// reproducible across runs and platforms.
package noise

import (
	"math"
	"sync"
)

// Source generates smooth 2-D value noise from a 64-bit seed.
type Source struct {
	seed uint64
}

// New returns a noise source for the given seed.
func New(seed uint64) *Source { return &Source{seed: seed} }

// hash mixes lattice coordinates with the seed into a uniform-ish 64-bit
// value (SplitMix64 finaliser).
func (s *Source) hash(x, y int64) uint64 {
	h := s.seed ^ uint64(x)*0x9e3779b97f4a7c15 ^ uint64(y)*0xbf58476d1ce4e5b9
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}

// lattice returns the pseudo-random value in [0,1) at integer lattice point
// (x, y).
func (s *Source) lattice(x, y int64) float64 {
	return float64(s.hash(x, y)>>11) / float64(1<<53)
}

// smoothstep is the C1-continuous fade used for interpolation weights.
func smoothstep(t float64) float64 { return t * t * (3 - 2*t) }

// At returns smooth value noise in [0,1) at continuous coordinates (x, y).
func (s *Source) At(x, y float64) float64 {
	x0, y0 := math.Floor(x), math.Floor(y)
	tx, ty := smoothstep(x-x0), smoothstep(y-y0)
	ix, iy := int64(x0), int64(y0)
	v00 := s.lattice(ix, iy)
	v10 := s.lattice(ix+1, iy)
	v01 := s.lattice(ix, iy+1)
	v11 := s.lattice(ix+1, iy+1)
	top := v00 + (v10-v00)*tx
	bot := v01 + (v11-v01)*tx
	return top + (bot-top)*ty
}

// FBM sums octaves of value noise (fractal Brownian motion) and returns a
// value in [0,1). gain scales successive octave amplitudes, lacunarity scales
// successive octave frequencies.
func (s *Source) FBM(x, y float64, octaves int, lacunarity, gain float64) float64 {
	var sum, amp, norm float64
	amp = 1
	freq := 1.0
	for o := 0; o < octaves; o++ {
		sum += amp * s.At(x*freq, y*freq)
		norm += amp
		amp *= gain
		freq *= lacunarity
	}
	if norm == 0 {
		return 0
	}
	return sum / norm
}

// FillFBM writes an fBm field into plane (row-major w x h) with the given
// base frequency (feature size ~ w/frequency pixels), octave count and
// standard lacunarity 2 / gain 0.5. Every value is bit-identical to
// float32(FBM(x·frequency/w, y·frequency/h, octaves, 2, 0.5)); FillFBM
// only hoists what FBM would recompute per pixel. Each octave's lattice
// columns and smoothstep weights are computed once per call, and a
// lattice row's values once per octave and lattice row, so a pixel costs
// the interpolation and the octave sum alone.
func (s *Source) FillFBM(plane []float32, w, h int, frequency float64, octaves int) {
	if len(plane) != w*h {
		panic("noise: plane length does not match dimensions")
	}
	if octaves <= 0 {
		clear(plane)
		return
	}
	sc := fbmPool.Get().(*fbmScratch)
	defer fbmPool.Put(sc)
	sc.prepare(w, octaves)
	sx := frequency / float64(w)
	sy := frequency / float64(h)
	var norm float64
	amp, freq := 1.0, 1.0
	for o := range sc.oct {
		sc.columns(o, w, sx, freq)
		norm += amp
		amp *= 0.5
		freq *= 2
	}
	acc := sc.acc
	for y := 0; y < h; y++ {
		yc := float64(y) * sy
		clear(acc)
		amp, freq = 1.0, 1.0
		for o := range sc.oct {
			oc := &sc.oct[o]
			yf := yc * freq
			y0 := math.Floor(yf)
			ty := smoothstep(yf - y0)
			if iy := int64(y0); !oc.rowValid || oc.iy != iy {
				for c, ix := range oc.cells {
					oc.row0[c] = s.lattice(ix, iy)
					oc.row1[c] = s.lattice(ix, iy+1)
				}
				oc.iy, oc.rowValid = iy, true
			}
			row0, row1 := oc.row0, oc.row1
			for x, k := range oc.cell {
				tx := oc.tx[x]
				v00, v10 := row0[k], row0[k+1]
				v01, v11 := row1[k], row1[k+1]
				top := v00 + (v10-v00)*tx
				bot := v01 + (v11-v01)*tx
				acc[x] += amp * (top + (bot-top)*ty)
			}
			amp *= 0.5
			freq *= 2
		}
		dst := plane[y*w : (y+1)*w]
		for x, v := range acc {
			dst[x] = float32(v / norm)
		}
	}
}

// fbmScratch is FillFBM's working set, pooled across calls.
type fbmScratch struct {
	oct []fbmOctave
	acc []float64 // one row's octave sums
}

// fbmOctave holds one octave's hoisted tables. cells lists the lattice
// columns the image touches; column x interpolates between cells[cell[x]]
// and cells[cell[x]+1] (always its lattice column and the next one) with
// weight tx[x]. row0 and row1 hold the lattice values of cells on lattice
// rows iy and iy+1.
type fbmOctave struct {
	cell       []int32
	tx         []float64
	cells      []int64
	row0, row1 []float64
	iy         int64
	rowValid   bool
}

var fbmPool = sync.Pool{New: func() any { return new(fbmScratch) }}

// prepare sizes the scratch for a w-wide field of the given octave count.
func (sc *fbmScratch) prepare(w, octaves int) {
	sc.oct = resize(sc.oct, octaves)
	sc.acc = resize(sc.acc, w)
	for o := range sc.oct {
		oc := &sc.oct[o]
		oc.cell = resize(oc.cell, w)
		oc.tx = resize(oc.tx, w)
		oc.rowValid = false
	}
}

// columns fills octave o's column tables for coordinates x·sx·freq.
// Consecutive columns usually share a lattice column or step to the next
// one, so the cell list stays near the octave's lattice span instead of
// holding two cells per pixel.
func (sc *fbmScratch) columns(o, w int, sx, freq float64) {
	oc := &sc.oct[o]
	cells := oc.cells[:0]
	for x := 0; x < w; x++ {
		xf := float64(x) * sx * freq
		x0 := math.Floor(xf)
		oc.tx[x] = smoothstep(xf - x0)
		ix, n := int64(x0), len(cells)
		switch {
		case n >= 2 && cells[n-2] == ix:
			oc.cell[x] = int32(n - 2)
		case n >= 1 && cells[n-1] == ix:
			cells = append(cells, ix+1)
			oc.cell[x] = int32(n - 1)
		default:
			cells = append(cells, ix, ix+1)
			oc.cell[x] = int32(n)
		}
	}
	oc.cells = cells
	oc.row0 = resize(oc.row0, len(cells))
	oc.row1 = resize(oc.row1, len(cells))
}

// resize returns buf with length n, reusing its backing array when it is
// large enough. The content is stale.
func resize[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// Uniform returns the k-th uniform variate in [0,1) of the stream identified
// by (seed, stream). It gives scene code cheap, order-independent random
// numbers: Uniform(stream, k) never depends on other draws.
func (s *Source) Uniform(stream, k int64) float64 {
	return float64(s.hash(stream, k)>>11) / float64(1<<53)
}

// Normal returns the k-th standard-normal variate of the stream, via the
// Box–Muller transform on two independent uniforms.
func (s *Source) Normal(stream, k int64) float64 {
	u1 := s.Uniform(stream, 2*k)
	u2 := s.Uniform(stream, 2*k+1)
	if u1 < 1e-300 {
		u1 = 1e-300
	}
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}
