package cloud

import (
	"earthplus/internal/illum"
	"earthplus/internal/raster"
)

// ReferenceDetector is a detector that can exploit a cloud-free reference
// image of the same location. The paper's accurate ground detector [74]
// consumes image sequences; this is the sequence-aware analogue.
type ReferenceDetector interface {
	Detector
	// DetectWithReference detects clouds in im given a cloud-free
	// reference of the same location (nil falls back to single-image
	// detection).
	DetectWithReference(im, ref *raster.Image) *Mask
}

// TemporalDetector flags pixels that became simultaneously brighter in the
// visible bands and colder in the infrared relative to a cloud-free
// reference — the signature of cloud, and crucially NOT of snow (snow is
// bright but persists in the reference, so its delta is near zero). This
// resolves the snow/cloud confusion that defeats single-image detectors.
type TemporalDetector struct {
	IRBand   int
	VisBands []int
	// Threshold on the combined brighten+cool delta score.
	Threshold float32
	// Scales are box-blur radii applied to the delta score.
	Scales []int
	// DilatePx grows detections to swallow cloud fringes.
	DilatePx int
	// Fallback handles captures with no reference available.
	Fallback Detector
}

var _ ReferenceDetector = (*TemporalDetector)(nil)

// DefaultTemporal returns the ground-side accurate detector for a band set.
func DefaultTemporal(bands []raster.BandInfo) *TemporalDetector {
	ir := raster.InfraredBand(bands)
	vis := raster.GroundBands(bands)
	if len(vis) == 0 {
		vis = []int{0}
	}
	return &TemporalDetector{
		IRBand:    ir,
		VisBands:  vis,
		Threshold: 0.16,
		Scales:    []int{1, 3},
		DilatePx:  1,
		Fallback:  DefaultAccurate(bands),
	}
}

// Name implements Detector.
func (d *TemporalDetector) Name() string { return "temporal-delta" }

// Detect implements Detector via the fallback (no reference available).
func (d *TemporalDetector) Detect(im *raster.Image) *Mask {
	return d.Fallback.Detect(im)
}

// DetectWithReference implements ReferenceDetector.
func (d *TemporalDetector) DetectWithReference(im, ref *raster.Image) *Mask {
	if ref == nil || !im.SameShape(ref) {
		return d.Fallback.Detect(im)
	}
	w, h := im.Width, im.Height
	// Align the capture's illumination to the reference first, otherwise
	// a bright illumination day reads as a global cloud sheet.
	capBright := bandMean(im, d.VisBands)
	refBright := bandMean(ref, d.VisBands)
	if m, ok := illum.FitRobust(refBright, capBright, nil, 0.25); ok {
		m.Normalize(capBright)
	}
	score := make([]float32, w*h)
	for i := range score {
		s := capBright[i] - refBright[i] // clouds brighten
		if d.IRBand >= 0 {
			s += ref.Pix[d.IRBand][i] - im.Pix[d.IRBand][i] // clouds cool
		}
		score[i] = s
	}
	best := make([]float32, w*h)
	copy(best, score)
	tmp := make([]float32, w*h)
	for _, r := range d.Scales {
		blurred := boxBlur(score, tmp, w, h, r)
		for i, v := range blurred {
			if v > best[i] {
				best[i] = v
			}
		}
	}
	out := NewMask(w, h)
	for i, v := range best {
		out.Bits[i] = v > d.Threshold
	}
	for i := 0; i < d.DilatePx; i++ {
		dilate(out)
	}
	return out
}

// bandMean averages the selected bands into a fresh plane.
func bandMean(im *raster.Image, bands []int) []float32 {
	out := make([]float32, im.Width*im.Height)
	inv := 1 / float32(len(bands))
	for _, b := range bands {
		p := im.Pix[b]
		for i, v := range p {
			out[i] += v * inv
		}
	}
	return out
}
