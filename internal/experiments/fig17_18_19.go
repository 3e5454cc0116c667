package experiments

import (
	"fmt"
	"io"

	"earthplus/internal/codec"
	"earthplus/internal/core"
	"earthplus/internal/metrics"
	"earthplus/internal/scene"
)

// Fig17Result decomposes the reference compression ratio (paper Fig 17:
// downsampling plus update-changes exceed the ratio the uplink requires).
type Fig17Result struct {
	Uncompressed   float64 // always 1
	WithDownsample float64
	WithUpdates    float64
	Required       float64
}

// Fig17 measures the rich-content dataset: the ratio achieved by
// downsampling + encoding a whole reference, then the amortised ratio when
// only changed reference tiles are uploaded (measured from an Earth+ run).
func Fig17(sc Scale) (*Fig17Result, error) {
	cfg := richConfig(sc)
	s := scene.New(cfg)
	down := 4
	rawPerLoc := float64(cfg.Width) * float64(cfg.Height) * float64(len(cfg.Bands)) * 2

	// Downsampling + codec, full reference.
	ref := s.GroundTruth(0, sc.EvalStart)
	refLow, err := ref.Downsample(down)
	if err != nil {
		return nil, err
	}
	var lowBytes float64
	for b := 0; b < refLow.NumBands(); b++ {
		opts := codec.DefaultOptions()
		opts.BudgetBytes = int(6.0 * float64(refLow.Width*refLow.Height) / 8)
		data, err := codec.EncodePlane(refLow.Plane(b), refLow.Width, refLow.Height, opts)
		if err != nil {
			return nil, err
		}
		lowBytes += float64(len(data))
	}

	// Delta updates: measured uplink traffic per (location, day) from an
	// Earth+ run with an unconstrained uplink.
	theta := profiledTheta(sc, cfg, down)
	m, err := measure(sc, envFor(cfg, richOrbit(), 0), core.SystemName, earthSpec(sc, theta, fig12Gamma), nil)
	if err != nil {
		return nil, err
	}
	perLocDay := m.sum.MeanUpBytesPerDay / float64(len(cfg.Locations))
	if perLocDay <= 0 {
		perLocDay = 1
	}

	return &Fig17Result{
		Uncompressed:   1,
		WithDownsample: rawPerLoc / lowBytes,
		WithUpdates:    rawPerLoc / perLocDay,
		Required:       defaultUplinkDivisor,
	}, nil
}

// ID implements Result.
func (r *Fig17Result) ID() string { return "Figure 17" }

// Render implements Result.
func (r *Fig17Result) Render(w io.Writer) error {
	metrics.Bar(w, "reference compression ratio:", []string{
		"uncompressed",
		"w/ downsampling",
		"w/ downsampling + update changes",
	}, []float64{r.Uncompressed, r.WithDownsample, r.WithUpdates}, "x", 40)
	fmt.Fprintf(w, "required for the scaled uplink: %.0fx\n", r.Required)
	fmt.Fprintf(w, "achieved %.0fx %s the requirement (paper: >10,000x at Doves scale, where the\n",
		r.WithUpdates, aboveBelow(r.WithUpdates >= r.Required))
	fmt.Fprintln(w, " downsampling factor alone is 2601x; our scene is smaller so ratios scale down)")
	return nil
}

func aboveBelow(ok bool) string {
	if ok {
		return "exceeds"
	}
	return "is below"
}

// Fig18Point is one uplink-budget sample.
type Fig18Point struct {
	UplinkBytesPerDay int64
	DownlinkMbps      float64
	PSNR              float64
	MeanRefAge        float64
}

// Fig18Result shows downlink demand falling as the uplink grows (paper
// Fig 18: 22 Mbps less downlink at 4 Mbps uplink).
type Fig18Result struct {
	Points []Fig18Point
}

// Fig18 sweeps the uplink budget divisor on the rich-content dataset.
func Fig18(sc Scale) (*Fig18Result, error) {
	cfg := richConfig(sc)
	theta := profiledTheta(sc, cfg, 4)
	res := &Fig18Result{}
	for _, div := range sc.UplinkDivisors {
		env := envFor(cfg, richOrbit(), div)
		m, err := measure(sc, env, core.SystemName, earthSpec(sc, theta, fig12Gamma), nil)
		if err != nil {
			return nil, err
		}
		s := m.sum
		res.Points = append(res.Points, Fig18Point{
			UplinkBytesPerDay: env.UplinkBytesPerDay,
			DownlinkMbps:      s.RequiredDownlinkBps / 1e6,
			PSNR:              s.MeanPSNR,
			MeanRefAge:        s.MeanRefAge,
		})
	}
	return res, nil
}

// ID implements Result.
func (r *Fig18Result) ID() string { return "Figure 18" }

// Render implements Result.
func (r *Fig18Result) Render(w io.Writer) error {
	rows := [][]string{{"uplink (KB/day/sat)", "downlink (kbps)", "PSNR (dB)"}}
	for _, p := range r.Points {
		rows = append(rows, []string{
			fmt.Sprintf("%.2f", float64(p.UplinkBytesPerDay)/1024),
			fmt.Sprintf("%.3f", p.DownlinkMbps*1e3),
			fmt.Sprintf("%.1f", p.PSNR),
		})
	}
	metrics.Table(w, rows)
	if n := len(r.Points); n > 1 {
		first, last := r.Points[0], r.Points[n-1]
		fmt.Fprintf(w, "growing the uplink %.0fx cuts the required downlink by %.0f%% (paper: 22 Mbps less at 4 Mbps uplink)\n",
			float64(last.UplinkBytesPerDay)/float64(first.UplinkBytesPerDay),
			(1-last.DownlinkMbps/first.DownlinkMbps)*100)
	}
	return nil
}

// Fig19Result is the compression ratio versus constellation size (paper
// Fig 19: 3x at one satellite growing to 10x at sixteen).
type Fig19Result struct {
	Fleet  []int
	Ratios []float64 // 1 / mean downloaded-tile fraction
}

// Fig19 runs Earth+ on the sampled large-constellation dataset for each
// fleet size, using the paper's estimation: compression ratio is the
// inverse of the average changed (downloaded) area.
func Fig19(sc Scale) (*Fig19Result, error) {
	cfg := scene.LargeConstellationSampled(sc.Size)
	theta := profiledTheta(sc, cfg, 4)
	res := &Fig19Result{}
	for _, n := range sc.FleetSweep {
		m, err := measure(sc, envFor(cfg, planetOrbit(n), defaultUplinkDivisor), core.SystemName, earthSpec(sc, theta, fig12Gamma), nil)
		if err != nil {
			return nil, err
		}
		ratio := 0.0
		if m.sum.MeanTileFrac > 0 {
			ratio = 1 / m.sum.MeanTileFrac
		}
		res.Fleet = append(res.Fleet, n)
		res.Ratios = append(res.Ratios, ratio)
	}
	return res, nil
}

// ID implements Result.
func (r *Fig19Result) ID() string { return "Figure 19" }

// Render implements Result.
func (r *Fig19Result) Render(w io.Writer) error {
	labels := []string{"download everything"}
	values := []float64{1}
	for i, n := range r.Fleet {
		labels = append(labels, fmt.Sprintf("Earth+ %d satellites", n))
		values = append(values, r.Ratios[i])
	}
	metrics.Bar(w, "compression ratio vs constellation size:", labels, values, "x", 40)
	fmt.Fprintln(w, "(paper: 3x with 1 satellite growing to 10x with 16)")
	return nil
}
