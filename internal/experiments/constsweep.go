package experiments

import (
	"fmt"
	"io"

	"earthplus/internal/constellation"
	"earthplus/internal/core"
	"earthplus/internal/metrics"
	"earthplus/internal/registry"
	"earthplus/internal/scene"
)

// The constellation sweep measures the ground-segment regime the paper's
// deployment numbers imply but its evaluation never models: a fleet large
// enough that ground stations become the contended resource. Each point
// flies a fleet over the single-location Planet-like dataset with N
// contended stations — each serving one satellite per contact window, each
// contact metered by a per-contact uplink budget — and records how quality,
// contention stalls, re-seed backlog and event time-to-usable-image move as
// the fleet outgrows the ground segment.

// constSweepSats are the swept fleet sizes.
var constSweepSats = []int{4, 16, 64}

// constSweepStations are the swept ground-station counts.
var constSweepStations = []int{1, 2, 4}

// constConfig is the dataset the constellation runs fly: the Planet-like
// single coastal location (Table 2's large-constellation regime), whose
// fast-changing terrain keeps per-satellite uplink demand alive.
func constConfig(sc Scale) scene.Config {
	cfg := scene.LargeConstellation(sc.Size)
	if sc.MaxLocations > 0 && sc.MaxLocations < len(cfg.Locations) {
		cfg.Locations = cfg.Locations[:sc.MaxLocations]
	}
	return cfg
}

// ConstPoint is one measured (fleet size, station count) cell.
type ConstPoint struct {
	Satellites int `json:"satellites"`
	Stations   int `json:"stations"`
	// MeanPSNR is quality over the evaluation window; under contention
	// satellites fly stale references longer, so it degrades with the
	// fleet/station ratio.
	MeanPSNR float64 `json:"mean_psnr"`
	// UpBytesPerDay is the fleet's uplink consumption; every byte moved
	// inside a booked contact window's meter.
	UpBytesPerDay float64 `json:"uplink_bytes_per_day"`
	// ContactBudgetBytes is the per-contact uplink budget the point ran
	// with (-1 = unlimited).
	ContactBudgetBytes int64 `json:"contact_budget_bytes"`
	// Contacts counts booked (station, window) slots over the run.
	Contacts int64 `json:"contacts"`
	// Stalls counts satellite-days with pending uplink work that won no
	// contact window.
	Stalls int64 `json:"contention_stalls"`
	// ReseedBacklog sums per-day fleet-wide pending re-seed locations;
	// MaxReseedBacklog is the worst single day.
	ReseedBacklog    int64 `json:"reseed_backlog"`
	MaxReseedBacklog int64 `json:"max_reseed_backlog"`
	// Events is the event workload's time-to-usable-image outcome.
	Events constellation.EventSummary `json:"events"`
}

// ConstSweepResult is the contended ground-station sweep.
type ConstSweepResult struct {
	// Sats and Stations are the swept axes.
	Sats     []int `json:"satellites"`
	Stations []int `json:"stations"`
	// ThresholdPSNR is the usable-image bar of the event workload.
	ThresholdPSNR float64      `json:"threshold_psnr"`
	Points        []ConstPoint `json:"points"`
}

// ConstellationSweep measures Earth+ under contended ground stations on
// the Planet-like dataset: fleet sizes x station counts, each with derived
// per-contact budgets, recording quality, contention and the event
// workload's time-to-usable-image.
func ConstellationSweep(sc Scale) (*ConstSweepResult, error) {
	cfg := constConfig(sc)
	theta := profiledTheta(sc, cfg)

	res := &ConstSweepResult{
		Sats:          constSweepSats,
		Stations:      constSweepStations,
		ThresholdPSNR: constellation.DefaultUsablePSNR,
	}
	for _, sats := range constSweepSats {
		for _, stations := range constSweepStations {
			env := envFor(cfg, DenseOrbit(sats), defaultUplinkDivisor)
			spec := registry.Spec{
				GammaBPP: fig12Gamma,
				Theta:    theta,
				Params:   map[string]float64{"stations": float64(stations)},
			}
			tracker := constellation.NewEventTracker(env.Scene, sc.EvalStart, sc.EvalStart+sc.EvalDays, 0)
			env.Observer = tracker
			m, err := measure(sc, env, core.SystemName, spec, nil)
			if err != nil {
				return nil, fmt.Errorf("constellation sweep: %d sats / %d stations: %w", sats, stations, err)
			}
			cs := m.sys.(*core.System)
			// Every contact's consumption must respect its meter: a byte
			// over the per-contact budget would mean the packer leaked
			// around the contact accounting.
			budget := cs.ContactBudget()
			contacts := cs.ContactLog()
			if len(contacts) == 0 {
				return nil, fmt.Errorf("constellation sweep: %d sats / %d stations: no contacts booked", sats, stations)
			}
			for _, ct := range contacts {
				if budget > 0 && ct.Bytes > budget {
					return nil, fmt.Errorf("constellation sweep: %d sats / %d stations: contact (sat %d, station %d, day %d) moved %d bytes over the %d-byte budget",
						sats, stations, ct.Sat, ct.Station, ct.Day, ct.Bytes, budget)
				}
			}
			st := cs.ConstellationStats()
			res.Points = append(res.Points, ConstPoint{
				Satellites:         sats,
				Stations:           stations,
				MeanPSNR:           m.sum.MeanPSNR,
				UpBytesPerDay:      m.sum.MeanUpBytesPerDay,
				ContactBudgetBytes: budget,
				Contacts:           st.Contacts,
				Stalls:             st.Stalls,
				ReseedBacklog:      st.ReseedBacklog,
				MaxReseedBacklog:   st.MaxReseedBacklog,
				Events:             tracker.Summary(),
			})
		}
	}
	return res, nil
}

// ID implements Result.
func (r *ConstSweepResult) ID() string { return "Constellation contention sweep" }

// Render implements Result.
func (r *ConstSweepResult) Render(w io.Writer) error {
	fmt.Fprintf(w, "contended ground stations (one satellite per contact window; usable-image bar %.1f dB)\n", r.ThresholdPSNR)
	rows := [][]string{{"sats", "stations", "PSNR", "uplink B/day", "contact B",
		"contacts", "stalls", "reseed backlog", "max backlog", "events", "usable", "mean TTUI", "max TTUI"}}
	for _, p := range r.Points {
		rows = append(rows, []string{
			fmt.Sprintf("%d", p.Satellites),
			fmt.Sprintf("%d", p.Stations),
			fmt.Sprintf("%.1f", p.MeanPSNR),
			fmt.Sprintf("%.0f", p.UpBytesPerDay),
			fmt.Sprintf("%d", p.ContactBudgetBytes),
			fmt.Sprintf("%d", p.Contacts),
			fmt.Sprintf("%d", p.Stalls),
			fmt.Sprintf("%d", p.ReseedBacklog),
			fmt.Sprintf("%d", p.MaxReseedBacklog),
			fmt.Sprintf("%d", p.Events.Tracked),
			fmt.Sprintf("%d", p.Events.Usable),
			fmt.Sprintf("%.1fd", p.Events.MeanDaysToUsable),
			fmt.Sprintf("%dd", p.Events.MaxDaysToUsable),
		})
	}
	metrics.Table(w, rows)
	fmt.Fprintln(w, "(TTUI = time-to-usable-image: days from event onset to the first downlinked")
	fmt.Fprintln(w, " frame scoring the usable bar over the event's tiles; stalls count")
	fmt.Fprintln(w, " satellite-days whose pending uplink work won no contact window)")
	return nil
}
