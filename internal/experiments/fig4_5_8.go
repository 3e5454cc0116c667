package experiments

import (
	"fmt"
	"io"
	"sort"

	"earthplus/internal/change"
	"earthplus/internal/illum"
	"earthplus/internal/metrics"
	"earthplus/internal/raster"
	"earthplus/internal/scene"
)

// Fig4Result is the changed-tile percentage as a function of reference age
// (paper Fig 4: ~3x more changed tiles at 50 days than at 10).
type Fig4Result struct {
	Ages    []int
	Changed []float64 // fraction of tiles changed at each age
}

// Fig4 measures cloud-free ground-truth pairs on one rich-content location
// across the age sweep.
func Fig4(sc Scale) *Fig4Result {
	cfg := richConfig(sc)
	s := scene.New(cfg)
	band := groundBand(s)
	grid := s.Grid()
	res := &Fig4Result{Ages: sc.RefAgeSweep}
	const loc = 1 // forest: representative non-snow content
	for _, age := range sc.RefAgeSweep {
		var frac []float64
		for base := sc.EvalStart; base < sc.EvalStart+sc.EvalDays; base += 17 {
			ref := s.GroundTruth(loc, base)
			cap := s.GroundTruth(loc, base+age)
			frac = append(frac, change.TrueChanges(ref, cap, band, grid, nil).Fraction())
		}
		res.Changed = append(res.Changed, metrics.Mean(frac))
	}
	return res
}

// ID implements Result.
func (r *Fig4Result) ID() string { return "Figure 4" }

// Render implements Result.
func (r *Fig4Result) Render(w io.Writer) error {
	rows := [][]string{{"reference age (days)", "changed tiles"}}
	for i, age := range r.Ages {
		rows = append(rows, []string{fmt.Sprintf("%d", age), fmt.Sprintf("%.1f%%", r.Changed[i]*100)})
	}
	metrics.Table(w, rows)
	if len(r.Ages) > 1 {
		at := func(age int) (float64, bool) {
			for i, a := range r.Ages {
				if a == age {
					return r.Changed[i], true
				}
			}
			return 0, false
		}
		if c10, ok1 := at(10); ok1 {
			if c50, ok2 := at(50); ok2 {
				fmt.Fprintf(w, "growth 10 d -> 50 d: %.1fx (paper: ~3x)\n", metrics.Ratio(c50, c10))
				return nil
			}
		}
		first, last := r.Changed[0], r.Changed[len(r.Changed)-1]
		fmt.Fprintf(w, "growth %d d -> %d d: %.1fx (paper: ~3x from 10 d to 50 d)\n",
			r.Ages[0], r.Ages[len(r.Ages)-1], metrics.Ratio(last, first))
	}
	return nil
}

// Fig5Result compares reference-image age under satellite-local versus
// constellation-wide selection (paper Fig 5: 51 days vs 4.2 days mean).
type Fig5Result struct {
	LocalAges         []float64
	ConstellationAges []float64
}

// Fig5 scans the large-constellation dataset's natural cloud regime: for
// every day of the window, the age of the most recent capture with <1%
// cloud coverage, (a) restricted to one satellite's own visits and (b)
// across the whole fleet.
func Fig5(sc Scale) *Fig5Result {
	cfg := scene.LargeConstellation(sc.Size)
	s := scene.New(cfg)
	cons := planetOrbit(48)
	const loc = 0
	res := &Fig5Result{}
	// Pre-compute clear visit days per satellite and for the fleet.
	clearByDay := map[int]bool{}
	clearBySat := make(map[int][]int)
	horizon := sc.EvalStart + sc.EvalDays
	for d := 0; d < horizon; d++ {
		if s.CloudCoverageTarget(loc, d) >= 0.01 {
			continue
		}
		for _, satID := range cons.VisitsOn(loc, d) {
			clearByDay[d] = true
			clearBySat[satID] = append(clearBySat[satID], d)
		}
	}
	lastClearBefore := func(days []int, day int) int {
		idx := sort.SearchInts(days, day) // first >= day
		if idx == 0 {
			return -1
		}
		return days[idx-1]
	}
	var fleetClear []int
	for d := 0; d < horizon; d++ {
		if clearByDay[d] {
			fleetClear = append(fleetClear, d)
		}
	}
	for d := sc.EvalStart; d < horizon; d++ {
		if prev := lastClearBefore(fleetClear, d); prev >= 0 {
			res.ConstellationAges = append(res.ConstellationAges, float64(d-prev))
		}
		// Satellite-local: average the visiting satellites' own history.
		for _, satID := range cons.VisitsOn(loc, d) {
			if prev := lastClearBefore(clearBySat[satID], d); prev >= 0 {
				res.LocalAges = append(res.LocalAges, float64(d-prev))
			}
		}
	}
	return res
}

// ID implements Result.
func (r *Fig5Result) ID() string { return "Figure 5" }

// Render implements Result.
func (r *Fig5Result) Render(w io.Writer) error {
	rows := [][]string{{"strategy", "mean age", "median", "p90"}}
	for _, s := range []struct {
		name string
		ages []float64
	}{
		{"satellite-local", r.LocalAges},
		{"constellation-wide", r.ConstellationAges},
	} {
		rows = append(rows, []string{
			s.name,
			fmt.Sprintf("%.1f d", metrics.Mean(s.ages)),
			fmt.Sprintf("%.0f d", metrics.Percentile(s.ages, 50)),
			fmt.Sprintf("%.0f d", metrics.Percentile(s.ages, 90)),
		})
	}
	metrics.Table(w, rows)
	fmt.Fprintf(w, "reduction: %.1fx (paper: 12x, 51 d -> 4.2 d)\n",
		metrics.Ratio(metrics.Mean(r.LocalAges), metrics.Mean(r.ConstellationAges)))
	return nil
}

// Fig8Result shows undetected changed tiles versus reference compression
// ratio at a fixed downloaded-tile budget (paper Fig 8: only 1.7% of tiles
// missed at 2601x compression).
type Fig8Result struct {
	Factors    []int     // per-axis downsampling factors
	Ratios     []float64 // resulting compression ratios (factor²)
	Missed     []float64 // changed tiles not detected
	Downloaded float64   // fixed downloaded fraction used for every point
}

// Fig8 fixes the number of downloaded tiles and measures, per downsampling
// factor, how many truly-changed tiles escape detection.
func Fig8(sc Scale) *Fig8Result {
	cfg := scene.LargeConstellationSampled(sc.Size)
	s := scene.New(cfg)
	band := groundBand(s)
	grid := s.Grid()
	const loc = 0

	// Gather (pair, factor) -> per-tile low-res diffs plus truth labels.
	type pair struct {
		lowDiffs map[int][]float64 // factor -> diffs
		truly    []bool
	}
	// Measure on near-clear CAPTURES, not pristine truth: the sensor
	// noise, illumination residual and atmospheric variability of real
	// images are what make detection at deep downsampling fallible.
	var pairs []pair
	for base := sc.EvalStart; base+5 < sc.EvalStart+sc.EvalDays; base += 7 {
		if s.CloudCoverageTarget(loc, base) > 0.02 || s.CloudCoverageTarget(loc, base+5) > 0.02 {
			continue
		}
		refCap := s.CaptureImage(loc, base, 0)
		newCap := s.CaptureImage(loc, base+5, 1)
		ref, cap := refCap.Image, newCap.Image.Clone()
		// Truth labels come from the underlying surface change.
		truly := change.TrueChanges(refCap.Truth, newCap.Truth, band, grid, nil)
		// Align the capture to the reference per the pipeline.
		if m, ok := illum.FitRobust(ref.Plane(band), cap.Plane(band), nil, 0.2); ok {
			m.Normalize(cap.Plane(band))
		}
		p := pair{lowDiffs: map[int][]float64{}, truly: truly.Set}
		for _, f := range sc.DownsampleSweep {
			if grid.Tile%f != 0 {
				continue
			}
			gLow, err := grid.Scaled(f)
			if err != nil {
				continue
			}
			refLow, err := ref.Downsample(f)
			if err != nil {
				continue
			}
			capLow, err := cap.Downsample(f)
			if err != nil {
				continue
			}
			p.lowDiffs[f] = raster.TileMeanAbsDiff(refLow, capLow, band, gLow)
		}
		pairs = append(pairs, p)
		// p retains only fresh diff slices and truth labels, so the
		// capture buffers can go back to the scene's pools each pair.
		s.ReleaseCapture(refCap)
		s.ReleaseCapture(newCap)
	}
	if len(pairs) == 0 {
		return &Fig8Result{}
	}

	// Fix the downloaded fraction: twice the truly-changed fraction,
	// mirroring the paper's fixed download budget of ~40%.
	var changedFrac float64
	var n int
	for _, p := range pairs {
		for _, c := range p.truly {
			if c {
				changedFrac++
			}
			n++
		}
	}
	changedFrac /= float64(n)
	target := changedFrac * 2
	if target > 0.9 {
		target = 0.9
	}

	res := &Fig8Result{Downloaded: target}
	for _, f := range sc.DownsampleSweep {
		var all []float64
		for _, p := range pairs {
			all = append(all, p.lowDiffs[f]...)
		}
		if len(all) == 0 {
			continue
		}
		// Pick θ so that exactly `target` of tiles are flagged.
		sorted := append([]float64(nil), all...)
		sort.Float64s(sorted)
		theta := sorted[int(float64(len(sorted))*(1-target))]
		var missed, changed float64
		for _, p := range pairs {
			for t, c := range p.truly {
				if !c {
					continue
				}
				changed++
				if p.lowDiffs[f][t] <= theta {
					missed++
				}
			}
		}
		res.Factors = append(res.Factors, f)
		res.Ratios = append(res.Ratios, float64(f*f))
		if changed > 0 {
			res.Missed = append(res.Missed, missed/changed)
		} else {
			res.Missed = append(res.Missed, 0)
		}
	}
	return res
}

// ID implements Result.
func (r *Fig8Result) ID() string { return "Figure 8" }

// Render implements Result.
func (r *Fig8Result) Render(w io.Writer) error {
	rows := [][]string{{"ref compression", "downloaded (fixed)", "changed tiles missed"}}
	for i := range r.Factors {
		rows = append(rows, []string{
			fmt.Sprintf("%.0fx", r.Ratios[i]),
			fmt.Sprintf("%.0f%%", r.Downloaded*100),
			fmt.Sprintf("%.1f%%", r.Missed[i]*100),
		})
	}
	metrics.Table(w, rows)
	fmt.Fprintln(w, "(paper: 1.7% missed at 2601x; the miss rate stays small as compression grows)")
	return nil
}
