package experiments

import (
	"fmt"
	"io"
	"math"
	"sort"

	"earthplus/internal/metrics"
	"earthplus/internal/sim"
)

// fig12Gamma is the fixed per-tile quality used by the distribution,
// time-series and per-location experiments.
const fig12Gamma = 1.0

// Fig12Result holds the per-capture distributions of downloaded-tile
// fraction and PSNR for all three systems (paper Fig 12).
type Fig12Result struct {
	TileFrac map[string][]float64
	PSNR     map[string][]float64
}

// Fig12 runs the three systems on the rich-content dataset at a fixed γ
// and collects the raw distributions, streamed per record (only the two
// floats the figure needs survive each capture).
func Fig12(sc Scale) (*Fig12Result, error) {
	mkEnv, theta := datasetEnv(sc, RichContent)
	type dist struct{ tile, psnr []float64 }
	dists := map[string]*dist{}
	_, err := threeSystems(sc, mkEnv, theta, fig12Gamma, func(name string) func(*sim.Record) {
		d := &dist{}
		dists[name] = d
		return func(r *sim.Record) {
			if r.Dropped {
				return
			}
			d.tile = append(d.tile, r.DownTileFrac)
			if !math.IsNaN(r.PSNR) && !math.IsInf(r.PSNR, 0) {
				d.psnr = append(d.psnr, r.PSNR)
			}
		}
	})
	if err != nil {
		return nil, err
	}
	res := &Fig12Result{TileFrac: map[string][]float64{}, PSNR: map[string][]float64{}}
	for _, name := range sortedKeys(dists) {
		res.TileFrac[name] = dists[name].tile
		res.PSNR[name] = dists[name].psnr
	}
	return res, nil
}

// ID implements Result.
func (r *Fig12Result) ID() string { return "Figure 12" }

// Render implements Result.
func (r *Fig12Result) Render(w io.Writer) error {
	fmt.Fprintln(w, "CDF of downloaded tiles per capture:")
	rows := [][]string{{"system", "p10", "p25", "p50", "p75", "p90"}}
	for _, name := range []string{"SatRoI", "Kodan", "Earth+"} {
		xs := r.TileFrac[name]
		row := []string{name}
		for _, p := range []float64{10, 25, 50, 75, 90} {
			row = append(row, fmt.Sprintf("%.0f%%", metrics.Percentile(xs, p)*100))
		}
		rows = append(rows, row)
	}
	metrics.Table(w, rows)
	fmt.Fprintln(w, "\nCDF of PSNR per capture (dB):")
	rows = [][]string{{"system", "p10", "p25", "p50", "p75", "p90"}}
	for _, name := range []string{"SatRoI", "Kodan", "Earth+"} {
		xs := r.PSNR[name]
		row := []string{name}
		for _, p := range []float64{10, 25, 50, 75, 90} {
			row = append(row, fmt.Sprintf("%.1f", metrics.Percentile(xs, p)))
		}
		rows = append(rows, row)
	}
	metrics.Table(w, rows)
	fmt.Fprintln(w, "(paper: Earth+ downloads <20% of tiles for most images while the baselines exceed 80%)")
	return nil
}

// Fig13Point is one capture in the one-location time series.
type Fig13Point struct {
	Day      int
	TileFrac float64
	PSNR     float64
}

// Fig13Result is the one-year single-location time series (paper Fig 13).
type Fig13Result struct {
	Series map[string][]Fig13Point
}

// Fig13 runs the three systems and extracts location 0's trace, streamed
// per record.
func Fig13(sc Scale) (*Fig13Result, error) {
	mkEnv, theta := datasetEnv(sc, RichContent)
	series := map[string]*[]Fig13Point{}
	_, err := threeSystems(sc, mkEnv, theta, fig12Gamma, func(name string) func(*sim.Record) {
		pts := &[]Fig13Point{}
		series[name] = pts
		return func(r *sim.Record) {
			if r.Loc != 0 || r.Dropped {
				return
			}
			*pts = append(*pts, Fig13Point{Day: r.Day, TileFrac: r.DownTileFrac, PSNR: r.PSNR})
		}
	})
	if err != nil {
		return nil, err
	}
	res := &Fig13Result{Series: map[string][]Fig13Point{}}
	for _, name := range sortedKeys(series) {
		pts := series[name]
		// Records stream in deterministic day order already; the sort is
		// kept as a guard for future multi-shard emitters.
		sort.Slice(*pts, func(i, j int) bool { return (*pts)[i].Day < (*pts)[j].Day })
		res.Series[name] = *pts
	}
	return res, nil
}

// ID implements Result.
func (r *Fig13Result) ID() string { return "Figure 13" }

// Render implements Result.
func (r *Fig13Result) Render(w io.Writer) error {
	for _, name := range []string{"Earth+", "SatRoI", "Kodan"} {
		pts := r.Series[name]
		var xs, fr, ps []float64
		for _, p := range pts {
			xs = append(xs, float64(p.Day))
			fr = append(fr, p.TileFrac*100)
			if !math.IsNaN(p.PSNR) {
				ps = append(ps, p.PSNR)
			}
		}
		metrics.Series(w, fmt.Sprintf("%s downloaded tiles over time", name), "day", "%tiles", xs, fr, 60, 8)
		fmt.Fprintf(w, "  mean downloaded %.0f%%, mean PSNR %.1f dB\n\n", metrics.Mean(fr), metrics.Mean(ps))
	}
	fmt.Fprintln(w, "(paper: Earth+ downloads 5-10x fewer areas most of the time, with occasional full guaranteed downloads)")
	return nil
}

// Fig14Result is the downlink saving per location and per band (paper
// Fig 14: better at 10 of 11 locations, worst at the snowy D and H;
// improvements on all 13 bands, largest on ground bands).
type Fig14Result struct {
	Locations   []string
	LocSaving   []float64
	Bands       []string
	BandSaving  []float64
	BaselineSys string
}

// fig14Agg streams one system's records into the per-location and
// per-band byte sums Fig 14 needs — constant memory per system regardless
// of the evaluation window.
type fig14Agg struct {
	locSum, bandSum []float64
	locN, bandN     []int
}

func newFig14Agg(nLoc, nBand int) *fig14Agg {
	return &fig14Agg{
		locSum: make([]float64, nLoc), locN: make([]int, nLoc),
		bandSum: make([]float64, nBand), bandN: make([]int, nBand),
	}
}

func (a *fig14Agg) add(r *sim.Record) {
	if r.Dropped {
		return
	}
	a.locSum[r.Loc] += float64(r.DownBytes)
	a.locN[r.Loc]++
	for b, n := range r.PerBandBytes {
		if b < len(a.bandSum) {
			a.bandSum[b] += float64(n)
			a.bandN[b]++
		}
	}
}

func (a *fig14Agg) meanAtLoc(loc int) float64 {
	if a.locN[loc] == 0 {
		return math.NaN()
	}
	return a.locSum[loc] / float64(a.locN[loc])
}

func (a *fig14Agg) meanAtBand(b int) float64 {
	if a.bandN[b] == 0 {
		return math.NaN()
	}
	return a.bandSum[b] / float64(a.bandN[b])
}

// Fig14 computes savings against the strongest baseline with PSNR not
// above Earth+'s, per the paper's definition.
func Fig14(sc Scale) (*Fig14Result, error) {
	mkEnv, theta := datasetEnv(sc, RichContent)
	env := mkEnv()
	nLoc := env.Scene.NumLocations()
	bands := env.Scene.Bands()
	aggs := map[string]*fig14Agg{}
	runs, err := threeSystems(sc, mkEnv, theta, fig12Gamma, func(name string) func(*sim.Record) {
		a := newFig14Agg(nLoc, len(bands))
		aggs[name] = a
		return a.add
	})
	if err != nil {
		return nil, err
	}
	earth := runs["Earth+"].sum
	// Strongest qualifying baseline: lowest bytes among those whose PSNR
	// does not exceed Earth+'s; if none qualifies, the lowest-bytes one.
	baseName := ""
	var baseBytes float64 = math.Inf(1)
	for _, name := range []string{"Kodan", "SatRoI"} {
		s := runs[name].sum
		qualifies := s.MeanPSNR <= earth.MeanPSNR
		if (qualifies || baseName == "") && s.MeanDownBytes < baseBytes {
			baseName, baseBytes = name, s.MeanDownBytes
		}
	}
	base := aggs[baseName]

	res := &Fig14Result{BaselineSys: baseName}
	// Per location.
	for loc := 0; loc < nLoc; loc++ {
		res.Locations = append(res.Locations, env.Scene.Location(loc).Name)
		res.LocSaving = append(res.LocSaving, metrics.Ratio(base.meanAtLoc(loc), aggs["Earth+"].meanAtLoc(loc)))
	}
	// Per band.
	for b := range bands {
		res.Bands = append(res.Bands, bands[b].Name)
		res.BandSaving = append(res.BandSaving, metrics.Ratio(base.meanAtBand(b), aggs["Earth+"].meanAtBand(b)))
	}
	return res, nil
}

// ID implements Result.
func (r *Fig14Result) ID() string { return "Figure 14" }

// Render implements Result.
func (r *Fig14Result) Render(w io.Writer) error {
	fmt.Fprintf(w, "baseline: strongest qualifying = %s\n", r.BaselineSys)
	metrics.Bar(w, "downlink saving by location (x):", r.Locations, r.LocSaving, "x", 40)
	fmt.Fprintln(w, "(paper: better at 10/11 locations; snow-prone D and H improve least)")
	metrics.Bar(w, "downlink saving by band (x):", r.Bands, r.BandSaving, "x", 40)
	fmt.Fprintln(w, "(paper: improvements on all 13 bands; largest on ground bands, smallest on atmosphere bands)")
	return nil
}
