package experiments

import (
	"fmt"
	"io"
	"math"
	"sort"

	"earthplus/internal/metrics"
	"earthplus/internal/scene"
	"earthplus/internal/sim"
)

// Dataset selects which of the paper's two evaluation datasets an
// experiment runs on.
type Dataset int

const (
	// RichContent is the Sentinel-2-like 11-location dataset (Fig 11a).
	RichContent Dataset = iota
	// PlanetSampled is the Planet-like 48-satellite dataset, sampled
	// below 5% cloud coverage as in the paper (Fig 11b).
	PlanetSampled
)

// String names the dataset.
func (d Dataset) String() string {
	if d == PlanetSampled {
		return "large-constellation (Planet-like)"
	}
	return "rich-content (Sentinel-2-like)"
}

// TradeoffPoint is one (bandwidth, quality) sample of a system's curve.
type TradeoffPoint struct {
	Gamma        float64
	DownlinkMbps float64
	PSNR         float64
}

// Fig11Result is the PSNR versus required-downlink trade-off (paper
// Fig 11a/11b).
type Fig11Result struct {
	Dataset Dataset
	Curves  map[string][]TradeoffPoint
	// SavingRange is Earth+'s downlink saving versus the strongest
	// baseline at matched PSNR, across the γ sweep (min and max factor).
	SavingMin, SavingMax float64
}

// Fig11 sweeps γ for Earth+, Kodan and SatRoI on the chosen dataset and
// records each system's bandwidth/PSNR curve.
func Fig11(sc Scale, ds Dataset) (*Fig11Result, error) {
	mkEnv, theta := datasetEnv(sc, ds)
	res := &Fig11Result{Dataset: ds, Curves: map[string][]TradeoffPoint{}}
	for _, gamma := range sc.GammaSweep {
		runs, err := threeSystems(sc, mkEnv, theta, gamma, nil)
		if err != nil {
			return nil, err
		}
		for _, name := range sortedKeys(runs) {
			s := runs[name].sum
			res.Curves[name] = append(res.Curves[name], TradeoffPoint{
				Gamma:        gamma,
				DownlinkMbps: s.RequiredDownlinkBps / 1e6,
				PSNR:         s.MeanPSNR,
			})
		}
	}
	for _, name := range sortedKeys(res.Curves) {
		pts := res.Curves[name]
		sort.Slice(pts, func(i, j int) bool { return pts[i].Gamma < pts[j].Gamma })
		res.Curves[name] = pts
	}
	res.SavingMin, res.SavingMax = savingRange(res.Curves)
	return res, nil
}

// datasetEnv returns an environment factory and the profiled θ for a
// dataset.
func datasetEnv(sc Scale, ds Dataset) (func() *sim.Env, float64) {
	switch ds {
	case PlanetSampled:
		cfg := scene.LargeConstellationSampled(sc.Size)
		theta := profiledTheta(sc, cfg, 4)
		return func() *sim.Env {
			return envFor(cfg, planetOrbit(48), defaultUplinkDivisor)
		}, theta
	default:
		cfg := richConfig(sc)
		theta := profiledTheta(sc, cfg, 4)
		return func() *sim.Env {
			return envFor(cfg, richOrbit(), defaultUplinkDivisor)
		}, theta
	}
}

// bandwidthAtPSNR linearly interpolates a system's bandwidth at the given
// PSNR. Outside the curve's achievable PSNR range it returns NaN — a
// baseline that never reaches (or never drops to) a quality level offers
// no valid comparison there.
func bandwidthAtPSNR(curve []TradeoffPoint, psnr float64) float64 {
	if len(curve) == 0 {
		return math.NaN()
	}
	pts := append([]TradeoffPoint(nil), curve...)
	sort.Slice(pts, func(i, j int) bool { return pts[i].PSNR < pts[j].PSNR })
	if psnr < pts[0].PSNR || psnr > pts[len(pts)-1].PSNR {
		return math.NaN()
	}
	for i := 1; i < len(pts); i++ {
		if psnr <= pts[i].PSNR {
			a, b := pts[i-1], pts[i]
			if b.PSNR == a.PSNR {
				return math.Min(a.DownlinkMbps, b.DownlinkMbps)
			}
			t := (psnr - a.PSNR) / (b.PSNR - a.PSNR)
			return a.DownlinkMbps + t*(b.DownlinkMbps-a.DownlinkMbps)
		}
	}
	return pts[0].DownlinkMbps
}

// savingRange computes Earth+'s matched-PSNR downlink saving: for each
// Earth+ sweep point, the interpolated bandwidth of the cheapest baseline
// at the same PSNR divided by Earth+'s bandwidth. Earth+ points outside
// every baseline's achievable quality range are skipped.
func savingRange(curves map[string][]TradeoffPoint) (lo, hi float64) {
	earth := curves["Earth+"]
	lo, hi = math.Inf(1), 0
	for _, p := range earth {
		best := math.Inf(1)
		//lint:deterministic min-reduction over baselines is iteration-order-independent
		for name, curve := range curves {
			if name == "Earth+" {
				continue
			}
			if bw := bandwidthAtPSNR(curve, p.PSNR); !math.IsNaN(bw) && bw < best {
				best = bw
			}
		}
		if math.IsInf(best, 1) || p.DownlinkMbps <= 0 {
			continue
		}
		f := best / p.DownlinkMbps
		lo = math.Min(lo, f)
		hi = math.Max(hi, f)
	}
	if math.IsInf(lo, 1) {
		lo, hi = math.NaN(), math.NaN()
	}
	return lo, hi
}

// ID implements Result.
func (r *Fig11Result) ID() string {
	if r.Dataset == PlanetSampled {
		return "Figure 11b"
	}
	return "Figure 11a"
}

// Render implements Result.
func (r *Fig11Result) Render(w io.Writer) error {
	fmt.Fprintf(w, "dataset: %s\n", r.Dataset)
	rows := [][]string{{"system", "gamma", "downlink", "PSNR (dB)"}}
	for _, name := range []string{"Earth+", "Kodan", "SatRoI"} {
		for _, p := range r.Curves[name] {
			bw := fmt.Sprintf("%.2f Mbps", p.DownlinkMbps)
			if p.DownlinkMbps < 0.001 {
				bw = fmt.Sprintf("%.1f bps", p.DownlinkMbps*1e6)
			} else if p.DownlinkMbps < 1 {
				bw = fmt.Sprintf("%.2f kbps", p.DownlinkMbps*1e3)
			}
			rows = append(rows, []string{
				name,
				fmt.Sprintf("%.2f", p.Gamma),
				bw,
				fmt.Sprintf("%.1f", p.PSNR),
			})
		}
	}
	metrics.Table(w, rows)
	fmt.Fprintf(w, "Earth+ downlink saving at matched PSNR: %.1fx - %.1fx", r.SavingMin, r.SavingMax)
	if r.Dataset == PlanetSampled {
		fmt.Fprintln(w, " (paper Fig 11b: 2.8-3.3x)")
	} else {
		fmt.Fprintln(w, " (paper Fig 11a: 1.3-2.0x)")
	}
	if r.SavingMin < 1 {
		fmt.Fprintln(w, "note: reference-based encoding has a quality ceiling set by archive staleness;")
		fmt.Fprintln(w, " above it the factor drops below 1 because only the baselines can keep buying")
		fmt.Fprintln(w, " PSNR with more bits (the flat top of Earth+'s curve). The paper's operating")
		fmt.Fprintln(w, " points sit below that knee, where the saving holds.")
	}
	return nil
}
