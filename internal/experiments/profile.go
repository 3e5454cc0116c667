package experiments

import (
	"earthplus/internal/change"
	"earthplus/internal/codec"
	"earthplus/internal/core"
	"earthplus/internal/raster"
	"earthplus/internal/scene"
)

// profiledTheta calibrates Earth+'s change-detection threshold θ the way
// the paper does (§5): profile one location's previous-year data (location
// 0 over the scale's profiling window), choosing the largest θ whose miss
// rate stays under 2%, or Earth+'s default θ without changed samples. The
// profiling pairs replicate the operational pipeline: the reference side
// is downsampled at Earth+'s RefDownsample AND passed through the uplink
// codec at core.RefBPP, so θ lands above the codec-noise floor the
// satellite will actually see.
func profiledTheta(sc Scale, cfg scene.Config) float64 {
	def := core.DefaultConfig()
	s := scene.New(cfg)
	grid := s.Grid()
	gLow, err := grid.Scaled(def.RefDownsample)
	if err != nil {
		return def.Theta
	}
	band := groundBand(s)
	var samples []change.Sample
	for d := sc.ProfileStart; d+8 < sc.ProfileStart+sc.ProfileDays; d += 8 {
		ref := s.GroundTruth(0, d)
		refLow, err := ref.Downsample(def.RefDownsample)
		if err != nil {
			return def.Theta
		}
		// Emulate the uplink codec round trip the on-board reference
		// actually experiences.
		opts := def.CodecOpts
		opts.BudgetBytes = codec.BandBudget(core.RefBPP, refLow.Width*refLow.Height)
		data, err := codec.EncodePlane(refLow.Plane(band), refLow.Width, refLow.Height, opts)
		if err != nil {
			return def.Theta
		}
		plane, _, _, err := codec.DecodePlane(data, 0)
		if err != nil {
			return def.Theta
		}
		copy(refLow.Plane(band), plane)
		for _, gap := range []int{3, 5} {
			cap := s.GroundTruth(0, d+gap)
			capLow, err := cap.Downsample(def.RefDownsample)
			if err != nil {
				return def.Theta
			}
			lowDiffs := raster.TileMeanAbsDiff(refLow, capLow, band, gLow)
			truly := change.TrueChanges(ref, cap, band, grid, nil)
			for t := range lowDiffs {
				samples = append(samples, change.Sample{LowResDiff: lowDiffs[t], Changed: truly.Set[t]})
			}
		}
	}
	return change.ProfileTheta(samples, 0.02, def.Theta)
}

// groundBand returns the index of the first ground-kind band (B2 for
// Sentinel-2, R for Planet).
func groundBand(s *scene.Scene) int {
	if g := raster.GroundBands(s.Bands()); len(g) > 0 {
		return g[0]
	}
	return 0
}
