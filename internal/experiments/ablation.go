package experiments

import (
	"fmt"
	"io"

	"earthplus/internal/core"
	"earthplus/internal/metrics"
	"earthplus/internal/registry"
	"earthplus/internal/scene"
	"earthplus/internal/sim"
)

// The ablations quantify three of Earth+'s design choices: the profiled
// change threshold θ and the guaranteed-download period (§5), and
// ground-side rejection of cloud-contaminated tiles (§4.3). Each runs
// Earth+ on the sampled large-constellation dataset with one knob varied.

// AblationPoint is one knob setting's outcome.
type AblationPoint struct {
	Label         string
	BytesPerCap   float64
	TileFrac      float64
	MeanPSNR      float64
	P10PSNR       float64
	MeanRefAge    float64
	UpBytesPerDay float64
}

// AblationResult is a set of knob settings for one design choice.
type AblationResult struct {
	Name   string
	Points []AblationPoint
}

// ID implements Result.
func (r *AblationResult) ID() string { return "Ablation: " + r.Name }

// Render implements Result.
func (r *AblationResult) Render(w io.Writer) error {
	rows := [][]string{{"setting", "bytes/capture", "tiles", "PSNR", "p10 PSNR", "ref age"}}
	for _, p := range r.Points {
		rows = append(rows, []string{
			p.Label,
			fmt.Sprintf("%.0f", p.BytesPerCap),
			fmt.Sprintf("%.0f%%", p.TileFrac*100),
			fmt.Sprintf("%.1f", p.MeanPSNR),
			fmt.Sprintf("%.1f", p.P10PSNR),
			fmt.Sprintf("%.1f d", p.MeanRefAge),
		})
	}
	metrics.Table(w, rows)
	return nil
}

// ablationRun executes Earth+ under the given registry spec and collects
// the knob outcome. A zero spec.Theta uses the profiled θ, matching every
// non-ablated run; system-specific knobs travel as spec.Params so every
// variant flows through the same registry code path.
func ablationRun(sc Scale, label string, spec registry.Spec) (AblationPoint, error) {
	cfg := scene.LargeConstellationSampled(sc.Size)
	env := envFor(cfg, planetOrbit(8), defaultUplinkDivisor)
	if spec.Theta == 0 {
		spec.Theta = profiledTheta(sc, cfg, core.DefaultConfig().RefDownsample)
	}
	// Only the PSNR samples (for the p10 quality floor) are retained per
	// capture.
	var psnrs []float64
	m, err := measure(sc, env, core.SystemName, spec, func(rec *sim.Record) {
		if !rec.Dropped && rec.PSNR == rec.PSNR { // skip NaN
			psnrs = append(psnrs, rec.PSNR)
		}
	})
	if err != nil {
		return AblationPoint{}, err
	}
	s := m.sum
	return AblationPoint{
		Label:         label,
		BytesPerCap:   s.MeanDownBytes,
		TileFrac:      s.MeanTileFrac,
		MeanPSNR:      s.MeanPSNR,
		P10PSNR:       metrics.Percentile(psnrs, 10),
		MeanRefAge:    s.MeanRefAge,
		UpBytesPerDay: s.MeanUpBytesPerDay,
	}, nil
}

// AblationTheta contrasts the profiled θ against fixed settings: too low
// re-downloads noise, too high misses changes (lower quality floor).
func AblationTheta(sc Scale) (*AblationResult, error) {
	cfg := scene.LargeConstellationSampled(sc.Size)
	profiled := profiledTheta(sc, cfg, core.DefaultConfig().RefDownsample)
	res := &AblationResult{Name: "change threshold θ (profiled vs fixed)"}
	for _, v := range []struct {
		label string
		theta float64
	}{
		{"θ/4 (over-sensitive)", profiled / 4},
		{fmt.Sprintf("profiled θ=%.4f", profiled), profiled},
		{"4θ (under-sensitive)", profiled * 4},
	} {
		theta := v.theta
		p, err := ablationRun(sc, v.label, registry.Spec{Theta: theta})
		if err != nil {
			return nil, err
		}
		res.Points = append(res.Points, p)
	}
	return res, nil
}

// AblationGuarantee sweeps the guaranteed-download period: shorter periods
// raise the quality floor (p10 PSNR) at extra downlink cost; disabling it
// lets undetected drift linger.
func AblationGuarantee(sc Scale) (*AblationResult, error) {
	res := &AblationResult{Name: "guaranteed-download period"}
	for _, v := range []struct {
		label string
		days  int
	}{
		{"every 10 days", 10},
		{"every 30 days (paper)", 30},
		{"disabled", 1 << 20},
	} {
		days := v.days
		p, err := ablationRun(sc, v.label, registry.Spec{Params: map[string]float64{"guarantee_days": float64(days)}})
		if err != nil {
			return nil, err
		}
		res.Points = append(res.Points, p)
	}
	return res, nil
}

// AblationReject contrasts ground-side rejection of cloud-contaminated
// downloaded tiles against the paper's let-it-self-heal default.
func AblationReject(sc Scale) (*AblationResult, error) {
	res := &AblationResult{Name: "ground-side cloud-tile rejection"}
	for _, v := range []struct {
		label string
		frac  float64
	}{
		{"off: re-download self-heals (default)", 0},
		{"reject tiles >50% detected cloud", 0.5},
		{"reject tiles >25% detected cloud", 0.25},
	} {
		frac := v.frac
		p, err := ablationRun(sc, v.label, registry.Spec{Params: map[string]float64{"reject_cloud_frac": frac}})
		if err != nil {
			return nil, err
		}
		res.Points = append(res.Points, p)
	}
	return res, nil
}
