package experiments

import (
	"fmt"
	"io"

	"earthplus/internal/baseline"
	"earthplus/internal/core"
	"earthplus/internal/metrics"
	"earthplus/internal/registry"
	"earthplus/internal/sat"
	"earthplus/internal/scene"
	"earthplus/internal/sim"
)

// The storage sweep is the missing half of Fig 15: the paper's storage
// figure orders the systems' footprints, but only a sweep of the on-board
// budget shows how compression degrades when the 360 GB store (Table 1)
// stops fitting the reference working set. Each system runs at ~5 budget
// points expressed as fractions of its own unlimited working-set
// footprint; a shrinking budget forces evictions, evictions force
// reference-miss fallbacks to full downloads, and the compression ratio
// decays monotonically. Earth+ runs TWICE — raw reference planes and
// ref_compression=on, at the SAME absolute budgets — so the sweep reads
// off directly how many more locations the compressed store keeps
// resident per byte of budget. Kodan keeps no on-board reference state,
// so its line is flat by construction and it runs once.

// storageBudgetFracs are the sweep points: fractions of the system's
// unlimited reference working set (0 = unlimited). The tail point sits
// above one COMPRESSED reference per satellite (~6/16 of a raw one at the
// 6 bpp reference rate), so every pressured point discriminates between
// the raw and compressed representations instead of starving both to an
// identical zero.
var storageBudgetFracs = []float64{0, 1.0, 0.5, 0.25, 0.2}

// policySweepFrac is the fixed budget (as a working-set fraction) the
// eviction-policy sweep compares lru vs schedule at: tight enough that
// the policy choice matters, loose enough that the store is not pure
// thrash.
const policySweepFrac = 0.5

// StorageSystemSeries is one system's storage-sensitivity curve.
type StorageSystemSeries struct {
	System string `json:"system"`
	// RefCompression marks the compressed-store variant of a system; its
	// BudgetBytes match the raw series point for point, so the two curves
	// compare at equal budgets.
	RefCompression bool `json:"ref_compression,omitempty"`
	// BudgetBytes[i] is the absolute store budget at sweep point i
	// (0 = unlimited).
	BudgetBytes []int64 `json:"budget_bytes"`
	// Ratio[i] is raw captured bytes over downlinked bytes — the
	// compression ratio the downlink experiences.
	Ratio []float64 `json:"compression_ratio"`
	// UpBytesPerDay[i] is the uplink actually consumed (reference
	// re-seeding after evictions shows up here).
	UpBytesPerDay []float64 `json:"uplink_bytes_per_day"`
	MeanPSNR      []float64 `json:"mean_psnr"`
	Evictions     []int64   `json:"evictions"`
	Misses        []int64   `json:"misses"`
	// Resident[i] counts the references left resident fleet-wide at the
	// end of run i, and FootprintBytes[i] is their REAL accounted
	// footprint — encoded bytes when RefCompression, raw-rate bytes
	// otherwise. Zero for systems without a bounded store (Kodan).
	Resident       []int   `json:"resident_locations,omitempty"`
	FootprintBytes []int64 `json:"footprint_bytes,omitempty"`
	// EffBitsPerSample is the measured per-sample storage rate of the
	// unlimited run (FootprintBytes*8 / resident samples): the real rate
	// compressed references achieve, versus the sat.RawBitsPerSample the
	// budget fractions were derived from.
	EffBitsPerSample float64 `json:"eff_bits_per_sample,omitempty"`
}

// EvictPolicyPoint is one eviction-policy comparison run at the fixed
// policy-sweep budget (the ROADMAP's "sweep over the eviction policies
// themselves at fixed budget" — the main series records only the one
// configured policy).
type EvictPolicyPoint struct {
	System        string  `json:"system"`
	Policy        string  `json:"policy"`
	BudgetBytes   int64   `json:"budget_bytes"`
	Ratio         float64 `json:"compression_ratio"`
	UpBytesPerDay float64 `json:"uplink_bytes_per_day"`
	MeanPSNR      float64 `json:"mean_psnr"`
	Evictions     int64   `json:"evictions"`
	Misses        int64   `json:"misses"`
}

// StorageSweepResult is the compression-vs-storage-budget sweep.
type StorageSweepResult struct {
	// Fracs are the budget points as working-set fractions (0 = unlimited).
	Fracs []float64 `json:"budget_fracs"`
	// Satellites is the fleet size of every run: budgets are PER
	// SATELLITE while the residency figures are fleet sums, so the
	// fleet-wide capacity at a point is BudgetBytes[i] * Satellites.
	Satellites int `json:"satellites"`
	// Policy is the eviction policy the bounded runs used.
	Policy  string                `json:"evict_policy"`
	Systems []StorageSystemSeries `json:"systems"`
	// PolicySweep compares the eviction policies at one fixed budget per
	// bounded-store system.
	PolicySweep []EvictPolicyPoint `json:"policy_sweep,omitempty"`
}

// boundedStore is a system with a bounded on-board reference store
// (Earth+, SatRoI): its eviction and miss counts, and what the store still
// holds after a run — the resident reference count and its real accounted
// footprint.
type boundedStore interface {
	StorageStats() (evictions, misses int64)
	ResidentRefs() (locations int, bytes int64)
}

// refWorkingSet is the unlimited footprint of a raw store holding one
// reference per location for a scene, at the given per-axis downsample,
// accounted exactly as sat.RefCache does: per-entry exact integer
// arithmetic at sat.RawBitsPerSample — ONE derivation for the sweep, the
// determinism check and any budget estimate.
func refWorkingSet(cfg scene.Config, downsample int) int64 {
	ds := int64(downsample)
	samples := (int64(cfg.Width) / ds) * (int64(cfg.Height) / ds) * int64(len(cfg.Bands))
	perLoc := (samples*sat.RawBitsPerSample + 7) / 8
	return int64(len(cfg.Locations)) * perLoc
}

// earthRefWorkingSet is the unlimited footprint of Earth+'s raw reference
// cache for a scene: references at the default detection resolution.
func earthRefWorkingSet(cfg scene.Config) int64 {
	return refWorkingSet(cfg, core.DefaultConfig().RefDownsample)
}

// earthRefSamples is the per-location sample count behind that footprint.
func earthRefSamples(cfg scene.Config) int64 {
	ds := int64(core.DefaultConfig().RefDownsample)
	return (int64(cfg.Width) / ds) * (int64(cfg.Height) / ds) * int64(len(cfg.Bands))
}

// satroiRefWorkingSet is SatRoI's unlimited footprint: full-resolution
// references at the raw rate its store accounts.
func satroiRefWorkingSet(cfg scene.Config) int64 {
	return refWorkingSet(cfg, 1)
}

// sweepRun is one measured simulation of the sweep.
type sweepRun struct {
	sum               sim.Summary
	evictions, misses int64
	resident          int
	footprint         int64
}

// StorageSweep measures compression ratio, uplink consumption and
// reference residency against the on-board storage budget for every
// registered system on the rich-content dataset, plus an eviction-policy
// comparison at a fixed budget. The main series run under sc.Spec's
// "evict_policy" (lru when unset); the sweep sets its own budgets and
// store representations.
func StorageSweep(sc Scale) (*StorageSweepResult, error) {
	mkEnv, theta := datasetEnv(sc, RichContent)
	cfg := richConfig(sc)
	earthSet := earthRefWorkingSet(cfg)
	satroiSet := satroiRefWorkingSet(cfg)

	policy, ok := sc.Spec.StrParam("evict_policy")
	if !ok {
		policy = string(sat.PolicyLRU)
	}

	runOne := func(system string, budget int64, pol string, compress bool) (sweepRun, error) {
		spec := registry.Spec{GammaBPP: fig12Gamma}
		if system == core.SystemName {
			spec.Theta = theta
		}
		if system != baseline.KodanName {
			// Presence is meaningful: 0 is an explicit "unlimited".
			spec.Params = map[string]float64{"storage_bytes": float64(budget)}
			spec.StrParams = map[string]string{"evict_policy": pol}
			if compress {
				spec.StrParams["ref_compression"] = "on"
			}
		}
		m, err := measure(sc, mkEnv(), system, spec, nil)
		if err != nil {
			return sweepRun{}, fmt.Errorf("storage sweep: %s: %w", system, err)
		}
		r := sweepRun{sum: m.sum}
		if bs, ok := m.sys.(boundedStore); ok {
			r.evictions, r.misses = bs.StorageStats()
			r.resident, r.footprint = bs.ResidentRefs()
		}
		return r, nil
	}

	res := &StorageSweepResult{Fracs: storageBudgetFracs, Policy: policy, Satellites: mkEnv().Orbit.Satellites}
	systems := []struct {
		name       string
		workingSet int64
		samples    int64 // per-location samples behind workingSet
		compress   bool
	}{
		{core.SystemName, earthSet, earthRefSamples(cfg), false},
		// Same absolute budgets as the raw Earth+ series (fractions of
		// the RAW working set): the equal-budget comparison is the point.
		{core.SystemName, earthSet, earthRefSamples(cfg), true},
		{baseline.SatRoIName, satroiSet, int64(cfg.Width) * int64(cfg.Height) * int64(len(cfg.Bands)), false},
		{baseline.KodanName, 0, 0, false},
	}
	for _, s := range systems {
		series := StorageSystemSeries{System: s.name, RefCompression: s.compress}
		for i, frac := range storageBudgetFracs {
			budget := int64(0)
			if frac > 0 {
				budget = int64(frac * float64(s.workingSet))
			}
			if s.name == baseline.KodanName && i > 0 {
				// Storage-insensitive: replicate the unlimited point
				// instead of re-running an identical simulation.
				series.BudgetBytes = append(series.BudgetBytes, 0)
				series.Ratio = append(series.Ratio, series.Ratio[0])
				series.UpBytesPerDay = append(series.UpBytesPerDay, series.UpBytesPerDay[0])
				series.MeanPSNR = append(series.MeanPSNR, series.MeanPSNR[0])
				series.Evictions = append(series.Evictions, 0)
				series.Misses = append(series.Misses, 0)
				continue
			}
			r, err := runOne(s.name, budget, policy, s.compress)
			if err != nil {
				return nil, err
			}
			series.BudgetBytes = append(series.BudgetBytes, budget)
			series.Ratio = append(series.Ratio, downlinkRatio(cfg, r.sum))
			series.UpBytesPerDay = append(series.UpBytesPerDay, r.sum.MeanUpBytesPerDay)
			series.MeanPSNR = append(series.MeanPSNR, r.sum.MeanPSNR)
			series.Evictions = append(series.Evictions, r.evictions)
			series.Misses = append(series.Misses, r.misses)
			if s.name != baseline.KodanName {
				series.Resident = append(series.Resident, r.resident)
				series.FootprintBytes = append(series.FootprintBytes, r.footprint)
				if frac == 0 && r.resident > 0 && s.samples > 0 {
					// Measured rate of the unlimited run: the real bytes
					// the store charges per sample, which for compressed
					// references is the achieved lossless ratio.
					series.EffBitsPerSample = float64(r.footprint*8) / float64(int64(r.resident)*s.samples)
				}
			}
		}
		res.Systems = append(res.Systems, series)
	}

	// Eviction-policy sweep at one fixed (binding) budget per
	// bounded-store system: the main series pins ONE policy; this records
	// how the alternatives compare at equal pressure.
	for _, s := range []struct {
		name       string
		workingSet int64
	}{
		{core.SystemName, earthSet},
		{baseline.SatRoIName, satroiSet},
	} {
		budget := int64(policySweepFrac * float64(s.workingSet))
		for _, pol := range sat.Policies() {
			r, err := runOne(s.name, budget, pol, false)
			if err != nil {
				return nil, fmt.Errorf("policy sweep: %w", err)
			}
			res.PolicySweep = append(res.PolicySweep, EvictPolicyPoint{
				System:        s.name,
				Policy:        pol,
				BudgetBytes:   budget,
				Ratio:         downlinkRatio(cfg, r.sum),
				UpBytesPerDay: r.sum.MeanUpBytesPerDay,
				MeanPSNR:      r.sum.MeanPSNR,
				Evictions:     r.evictions,
				Misses:        r.misses,
			})
		}
	}
	return res, nil
}

// ID implements Result.
func (r *StorageSweepResult) ID() string { return "Storage sweep (Fig 15 companion)" }

// label names a series in the rendered tables.
func (s *StorageSystemSeries) label() string {
	if s.RefCompression {
		return s.System + " (ref_compression=on)"
	}
	return s.System
}

// Render implements Result.
func (r *StorageSweepResult) Render(w io.Writer) error {
	fmt.Fprintf(w, "on-board store budget sweep (eviction policy: %s; frac 0 = unlimited)\n", r.Policy)
	for _, s := range r.Systems {
		rows := [][]string{{"budget frac", "budget", "ratio", "uplink B/day", "PSNR", "evictions", "misses", "resident", "footprint"}}
		for i, frac := range r.Fracs {
			budget := "unlimited"
			if s.BudgetBytes[i] > 0 {
				budget = fmt.Sprintf("%d", s.BudgetBytes[i])
			}
			resident, footprint := "-", "-"
			if i < len(s.Resident) {
				resident = fmt.Sprintf("%d", s.Resident[i])
				footprint = fmt.Sprintf("%d", s.FootprintBytes[i])
			}
			rows = append(rows, []string{
				fmt.Sprintf("%.2f", frac),
				budget,
				fmt.Sprintf("%.1fx", s.Ratio[i]),
				fmt.Sprintf("%.0f", s.UpBytesPerDay[i]),
				fmt.Sprintf("%.1f", s.MeanPSNR[i]),
				fmt.Sprintf("%d", s.Evictions[i]),
				fmt.Sprintf("%d", s.Misses[i]),
				resident,
				footprint,
			})
		}
		fmt.Fprintf(w, "%s:\n", s.label())
		if s.EffBitsPerSample > 0 {
			fmt.Fprintf(w, "  measured storage rate (unlimited run): %.2f bits/sample\n", s.EffBitsPerSample)
		}
		metrics.Table(w, rows)
	}
	if len(r.PolicySweep) > 0 {
		fmt.Fprintf(w, "eviction-policy sweep at %.2fx working-set budget:\n", policySweepFrac)
		rows := [][]string{{"system", "policy", "budget", "ratio", "uplink B/day", "PSNR", "evictions", "misses"}}
		for _, p := range r.PolicySweep {
			rows = append(rows, []string{
				p.System, p.Policy,
				fmt.Sprintf("%d", p.BudgetBytes),
				fmt.Sprintf("%.1fx", p.Ratio),
				fmt.Sprintf("%.0f", p.UpBytesPerDay),
				fmt.Sprintf("%.1f", p.MeanPSNR),
				fmt.Sprintf("%d", p.Evictions),
				fmt.Sprintf("%d", p.Misses),
			})
		}
		metrics.Table(w, rows)
	}
	fmt.Fprintln(w, "(compression ratio decays as the budget shrinks below the reference working")
	fmt.Fprintln(w, " set: evictions force reference-miss fallbacks to full non-cloudy downloads;")
	fmt.Fprintln(w, " the ref_compression=on series runs at the SAME budgets as the raw Earth+")
	fmt.Fprintln(w, " series and keeps more references resident per byte; Kodan keeps no")
	fmt.Fprintln(w, " reference state, so its line is flat by construction)")
	return nil
}
