// Package illum implements the paper's illumination alignment: the
// illumination condition affects pixel values linearly (§5, citing [72]),
// so a capture is aligned to its reference by ordinary least squares over
// the mutually cloud-free pixels.
package illum

import (
	"math"
	"math/bits"
	"slices"
)

// Model is a linear pixel-value mapping capture ≈ Gain*reference + Offset.
type Model struct {
	Gain   float64
	Offset float64
}

// Identity is the no-op model used when a fit is impossible.
var Identity = Model{Gain: 1, Offset: 0}

// minSamples is the fewest usable pixels for a trustworthy fit.
const minSamples = 16

// Fit estimates the linear illumination model mapping ref to cap by least
// squares over pixels where use[i] is true (a nil use means all pixels).
// It returns Identity with ok=false when too few pixels are usable, the
// reference has no variance, or the gain is out of range or undefined
// (a NaN or infinite pixel among the usable ones).
func Fit(ref, cap []float32, use []bool) (Model, bool) {
	var n int
	var sx, sy, sxx, sxy float64
	for i := range ref {
		if use != nil && !use[i] {
			continue
		}
		x, y := float64(ref[i]), float64(cap[i])
		sx += x
		sy += y
		sxx += x * x
		sxy += x * y
		n++
	}
	if n < minSamples {
		return Identity, false
	}
	fn := float64(n)
	varX := sxx - sx*sx/fn
	if varX < 1e-9 {
		return Identity, false
	}
	gain := (sxy - sx*sy/fn) / varX
	// A non-positive or wild gain means the "reference" explains nothing
	// (e.g. nearly-disjoint content); refuse to warp the capture with it.
	// The test is written to fail for NaN too: a NaN or infinite pixel
	// makes the sums, and so the gain, NaN or infinite.
	if !(gain >= 0.2 && gain <= 5) {
		return Identity, false
	}
	offset := (sy - gain*sx) / fn
	return Model{Gain: gain, Offset: offset}, true
}

// trimRounds is how many trimmed refits FitRobust makes after its
// initial least-squares pass.
const trimRounds = 2

// FitRobust estimates the illumination model like Fit but with trimmed
// refits: after an initial least-squares pass it discards the pixels with
// the largest absolute residuals and refits. Undetected haze brightens
// pixels one-sidedly, so a plain OLS fit is biased bright — and because
// every downloaded tile passes through this fit, the bias would compound
// into a systematic illumination drift of the whole ground archive.
// Trimming the residual tail removes the haze pixels from the fit.
//
// Each round keeps the pixels whose absolute residual is at most the one
// at index ⌊n·(1−trimFrac)⌋ of the n current residuals in ascending order,
// found by selection in expected linear time. The buffers are made once
// per call.
func FitRobust(ref, cap []float32, use []bool, trimFrac float64) (Model, bool) {
	m, ok := Fit(ref, cap, use)
	if !ok {
		return m, false
	}
	if trimFrac <= 0 || trimFrac >= 1 {
		return m, ok
	}
	cur := make([]bool, len(ref))
	if use != nil {
		copy(cur, use)
	} else {
		for i := range cur {
			cur[i] = true
		}
	}
	resid := make([]float64, len(ref))
	abs := make([]float64, 0, len(ref))
	for r := 0; r < trimRounds; r++ {
		// Absolute residuals under the current model, over current pixels.
		abs = abs[:0]
		for i := range ref {
			if !cur[i] {
				continue
			}
			resid[i] = math.Abs(float64(cap[i]) - (m.Gain*float64(ref[i]) + m.Offset))
			abs = append(abs, resid[i])
		}
		if len(abs) < 4*minSamples {
			return m, ok
		}
		cut := selectAt(abs, int(float64(len(abs))*(1-trimFrac)))
		// Narrow the current pixels to those within the cut. A failed
		// round returns the previous model, so cur may change in place.
		kept := 0
		for i := range ref {
			if !cur[i] {
				continue
			}
			if resid[i] <= cut {
				kept++
			} else {
				cur[i] = false
			}
		}
		if kept < 2*minSamples {
			return m, ok
		}
		m2, ok2 := Fit(ref, cap, cur)
		if !ok2 {
			return m, ok
		}
		m = m2
	}
	return m, true
}

// selectCutoff is the range length at or below which quickselect sorts
// instead of partitioning.
const selectCutoff = 12

// selectAt reorders a in place so that a[k] holds a value equal to the one
// sort.Float64s would leave there — NaNs first, then ascending, with −0 and
// +0 equal — and returns it, in expected O(n) and worst-case O(n log n).
func selectAt(a []float64, k int) float64 {
	// NaNs order before every number: gather them at the front.
	nan := 0
	for i, v := range a {
		if v != v {
			a[i], a[nan] = a[nan], v
			nan++
		}
	}
	if k < nan {
		return a[k]
	}
	return quickselect(a[nan:], k-nan, 2*bits.Len(uint(len(a)-nan)))
}

// quickselect returns the value at index k of the NaN-free a in ascending
// order, partitioning around a median-of-three pivot. It partitions at
// most depth times and then sorts the range still holding k.
func quickselect(a []float64, k, depth int) float64 {
	lo, hi := 0, len(a)-1
	for ; depth > 0 && hi-lo >= selectCutoff; depth-- {
		// Order a[lo], a[mid], a[hi] and take the middle one as pivot.
		mid := lo + (hi-lo)/2
		if a[mid] < a[lo] {
			a[mid], a[lo] = a[lo], a[mid]
		}
		if a[hi] < a[lo] {
			a[hi], a[lo] = a[lo], a[hi]
		}
		if a[hi] < a[mid] {
			a[hi], a[mid] = a[mid], a[hi]
		}
		x := a[mid]
		// Hoare partition: afterwards a[lo..j] <= x <= a[i..hi], and any
		// index between j and i holds x. The scans stay inside [lo, hi]:
		// a[lo] <= x <= a[hi] stops the first ones, each swap the next.
		i, j := lo, hi
		for i <= j {
			for a[i] < x {
				i++
			}
			for x < a[j] {
				j--
			}
			if i <= j {
				a[i], a[j] = a[j], a[i]
				i++
				j--
			}
		}
		switch {
		case k <= j:
			hi = j
		case k >= i:
			lo = i
		default:
			return a[k]
		}
	}
	slices.Sort(a[lo : hi+1])
	return a[k]
}

// Normalize maps capture-domain values back into reference-domain values,
// in place: v -> (v - Offset) / Gain. After Normalize, the capture can be
// differenced against the reference without illumination bias.
func (m Model) Normalize(cap []float32) {
	if m == Identity {
		return
	}
	invGain := float32(1 / m.Gain)
	off := float32(m.Offset)
	for i, v := range cap {
		cap[i] = (v - off) * invGain
	}
}

// Apply maps reference-domain values into capture-domain values, in place.
func (m Model) Apply(ref []float32) {
	if m == Identity {
		return
	}
	g, off := float32(m.Gain), float32(m.Offset)
	for i, v := range ref {
		ref[i] = v*g + off
	}
}
