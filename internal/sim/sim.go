// Package sim drives end-to-end simulations: it walks simulated days,
// generates captures for every (location, satellite) visit, hands them to a
// compression System (Earth+ or a baseline), and collects the per-capture
// records every experiment aggregates.
package sim

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"earthplus/internal/illum"
	"earthplus/internal/link"
	"earthplus/internal/orbit"
	"earthplus/internal/raster"
	"earthplus/internal/scene"
)

// Env is the shared simulation environment.
type Env struct {
	Scene *scene.Scene
	Orbit orbit.Constellation
	// Downlink sizes the paper's required-bandwidth metric.
	Downlink link.Budget
	// UplinkBytesPerDay caps each satellite's daily reference traffic
	// (<= 0 means unlimited). The experiments scale the Doves uplink down
	// to the modeled location count (experiments.defaultUplinkDivisor).
	UplinkBytesPerDay int64
	// Parallelism bounds how many locations are simulated concurrently
	// within one day (the codec.Parallelism convention: <= 0 means
	// GOMAXPROCS, 1 means one worker). Each location's visit sequence
	// stays ordered and records are emitted in location order, so results
	// are identical at any setting; see engine.go. When the pool exceeds
	// the location count (fleet-scale runs over few locations), the
	// surplus workers pre-generate the day's captures across satellites
	// instead of idling.
	Parallelism int
	// Observer, when non-nil, sees every evaluated visit while its capture
	// and ground reconstruction are still live (before the capture's
	// buffers recycle into the scene pools). Constellation event tracking
	// hangs off this.
	// Calls arrive in order within one location but concurrently across
	// locations, so an Observer must only touch per-location state from
	// ObserveVisit (or lock).
	Observer Observer
}

// Observer receives evaluated visits during a run. rec is the merged-order
// record about to be emitted; cap and recon are the live capture and ground
// reconstruction (recon may be nil when nothing was delivered). Neither may
// be retained past the call or written: the capture's image recycles into
// the scene's buffer pools, and its truth and cloud mask belong to a sky
// that other captures share.
type Observer interface {
	ObserveVisit(rec *Record, cap *scene.Capture, recon *raster.Image, grid raster.TileGrid)
}

// ContactRecord is one booked ground-station contact window: on Day,
// station Station's window Window carried Bytes of uplink traffic for
// satellite Sat. Contacts with Bytes == 0 were booked but found nothing
// left to send (the satellite's pending work fit in earlier windows).
type ContactRecord struct {
	Station int
	Day     int
	Sat     int
	Window  int
	Bytes   int64
}

// ContactReporter is implemented by Systems that book per-station contact
// windows (the constellation ground-segment model); RunStream attaches the
// log to Result.Contacts. The slice must be in deterministic order —
// contacts carry no wall-clock fields, so runs at different worker counts
// must produce identical logs.
type ContactReporter interface {
	ContactLog() []ContactRecord
}

// Outcome is what a System reports for one processed capture.
type Outcome struct {
	// Dropped marks captures discarded on board (cloud cover > 50%).
	Dropped bool
	// DownBytes is the downlink cost of this capture.
	DownBytes int64
	// PerBandBytes breaks DownBytes down by band (Fig 14).
	PerBandBytes []int64
	// DownTilesPerBand and TotalTiles size the downloaded-tile fraction
	// (averaged over bands).
	DownTilesPerBand float64
	TotalTiles       int
	// Recon is the ground's reconstruction after this capture's download
	// (nil when nothing was delivered).
	Recon *raster.Image
	// RefAge is the age in days of the reference used, -1 if none.
	RefAge int
	// RefMiss marks captures whose on-board reference lookup MISSED in a
	// reference-based system (the entry was evicted under the storage
	// budget, or never seeded): the satellite fell back to reference-free
	// encoding of every non-cloudy tile.
	RefMiss bool
	// Guaranteed marks the periodic full downloads (§5).
	Guaranteed bool
	// DownDropped marks captures whose downlink frame vanished in a
	// fault-injected channel (frame drop or canceled contact): DownBytes
	// was spent but the ground applied nothing, so Recon is the stale
	// archive. Always false on the perfect channel.
	DownDropped bool
	// DownCorrupted marks captures whose downlink frame arrived damaged
	// and was rejected whole by the ground's CRC gate.
	DownCorrupted bool
	// Component timings in seconds, measured on this machine. They stay
	// out of Record; the repo benchmark reads them per capture.
	EncodeSec, CloudSec, ChangeSec float64
}

// System is one on-board compression scheme under test.
type System interface {
	// Name identifies the system in reports.
	Name() string
	// Bootstrap installs operational history for one location: a clear
	// capture every deployed system would already have downloaded.
	Bootstrap(cap *scene.Capture) error
	// OnCapture processes one capture end to end (on-board encoding and
	// ground-side application).
	OnCapture(cap *scene.Capture) (Outcome, error)
	// OnDayEnd runs ground-side work after a day's captures (reference
	// uploads for Earth+); it returns the uplink bytes consumed per
	// satellite.
	OnDayEnd(day int) (upBytes int64, err error)
}

// Record is one capture's evaluated outcome. It carries no wall-clock
// field, so two runs produced the same result exactly when their
// WriteTrace bytes are equal. The link-fault fields carry omitempty so
// fault-free runs serialise without them.
type Record struct {
	Day, Loc, Sat int
	Dropped       bool
	TrueCoverage  float64
	DownBytes     int64
	PerBandBytes  []int64
	DownTileFrac  float64
	PSNR          float64 // NaN when not evaluable
	RefAge        int
	RefMiss       bool
	Guaranteed    bool
	DownDropped   bool `json:",omitempty"`
	DownCorrupted bool `json:",omitempty"`
}

// Result aggregates a run.
type Result struct {
	System  string
	Records []Record
	// UpBytesByDay records the uplink consumption per simulated day.
	UpBytesByDay map[int]int64
	// Contacts is the per-station contact log when the System under test
	// schedules ground-station windows (implements ContactReporter); nil
	// under the flat per-day uplink budget.
	Contacts []ContactRecord
	// Days is the number of simulated days.
	Days int
}

// Run simulates days [startDay, endDay) of the environment under sys.
// Bootstrap uses the first near-clear day at or after bootstrapFrom for
// each location (searching up to startDay). Locations are sharded across
// Env.Parallelism workers per day (see engine.go); the returned Result is
// the same at any worker count.
func Run(env *Env, sys System, bootstrapFrom, startDay, endDay int) (*Result, error) {
	var records []Record
	res, err := RunStream(env, sys, bootstrapFrom, startDay, endDay, func(r *Record) {
		records = append(records, *r)
	})
	if err != nil {
		return nil, err
	}
	res.Records = records
	return res, nil
}

// EvalPSNR scores a ground reconstruction against the captured image over
// truly-clear tiles, pooled across bands — the paper's quality metric
// compares downloaded imagery against what the satellite sensed (§2.2).
// Cloudy tiles carry no ground information in any system (all of them
// remove clouds), so they are excluded for every system alike. Before
// scoring, each band is radiometrically aligned with a global linear fit —
// standard ground calibration — so systems that download raw
// capture-domain pixels (Kodan) and systems that normalise on board
// (Earth+, SatRoI) are scored in the same domain.
func EvalPSNR(cap *scene.Capture, recon *raster.Image, grid raster.TileGrid) float64 {
	clear := cap.TrueCloud.TileMask(grid, 0.05)
	return evalPSNRMasked(cap, recon, grid, func(t int) bool { return !clear.Set[t] })
}

// EvalPSNRRegion scores like EvalPSNR but restricted to the tiles of
// region (true = evaluate), on top of the usual cloud exclusion — the
// event-workload metric: is the imagery over THIS wildfire usable yet?
// It returns NaN when the region has no evaluable tile (fully cloudy).
func EvalPSNRRegion(cap *scene.Capture, recon *raster.Image, grid raster.TileGrid, region []bool) float64 {
	clear := cap.TrueCloud.TileMask(grid, 0.05)
	any := false
	include := func(t int) bool { return t < len(region) && region[t] && !clear.Set[t] }
	for t := 0; t < grid.NumTiles(); t++ {
		if include(t) {
			any = true
			break
		}
	}
	if !any {
		return math.NaN()
	}
	return evalPSNRMasked(cap, recon, grid, include)
}

// evalScratch is evalPSNRMasked's working set, recycled through evalPool:
// the aligned copy of the reconstruction and the fit's pixel mask. A
// buffer whose shape does not match the call is replaced, not reused.
type evalScratch struct {
	aligned *raster.Image
	use     []bool
}

var evalPool = sync.Pool{New: func() any { return new(evalScratch) }}

// evalPSNRMasked aligns recon radiometrically over the included tiles and
// scores the masked PSNR.
func evalPSNRMasked(cap *scene.Capture, recon *raster.Image, grid raster.TileGrid, include func(int) bool) float64 {
	sc := evalPool.Get().(*evalScratch)
	defer evalPool.Put(sc)
	// Fit only over evaluated pixels; excluded (cloudy) tiles may hold
	// stale or zeroed content that would poison the fit.
	if n := grid.ImageW * grid.ImageH; len(sc.use) == n {
		clear(sc.use)
	} else {
		sc.use = make([]bool, n)
	}
	use := sc.use
	for t := 0; t < grid.NumTiles(); t++ {
		if !include(t) {
			continue
		}
		x0, y0, x1, y1 := grid.Bounds(t)
		for y := y0; y < y1; y++ {
			for x := x0; x < x1; x++ {
				use[y*grid.ImageW+x] = true
			}
		}
	}
	if sc.aligned == nil || !sc.aligned.SameShape(recon) {
		sc.aligned = recon.Clone()
	} else {
		sc.aligned.CopyFrom(recon)
	}
	aligned := sc.aligned
	for b := 0; b < aligned.NumBands(); b++ {
		if m, ok := illum.Fit(cap.Image.Plane(b), aligned.Plane(b), use); ok {
			m.Normalize(aligned.Plane(b))
		}
	}
	return raster.PSNRAllBandsMaskedTiles(cap.Image, aligned, grid, include)
}

// bootstrap feeds each location's first near-clear capture to the system.
func bootstrap(env *Env, sys System, fromDay, beforeDay int) error {
	for loc := 0; loc < env.Scene.NumLocations(); loc++ {
		day := -1
		for d := fromDay; d < beforeDay; d++ {
			if env.Scene.CloudCoverageTarget(loc, d) < 0.01 {
				day = d
				break
			}
		}
		if day < 0 {
			// Fall back to the least cloudy day in the window.
			best := math.Inf(1)
			for d := fromDay; d < beforeDay; d++ {
				if c := env.Scene.CloudCoverageTarget(loc, d); c < best {
					best, day = c, d
				}
			}
		}
		if day < 0 {
			return fmt.Errorf("sim: no bootstrap day for loc %d in [%d,%d)", loc, fromDay, beforeDay)
		}
		sats := env.Orbit.VisitsOn(loc, day)
		satID := 0
		if len(sats) > 0 {
			satID = sats[0]
		}
		cap := env.Scene.CaptureImage(loc, day, satID)
		err := sys.Bootstrap(cap)
		env.Scene.ReleaseCapture(cap)
		if err != nil {
			return fmt.Errorf("sim: bootstrap loc %d: %w", loc, err)
		}
	}
	return nil
}

// Summary condenses a result into the aggregates experiments report.
type Summary struct {
	Captures       int
	Dropped        int
	MeanPSNR       float64 // over evaluable captures
	MeanDownBytes  float64 // over non-dropped captures
	MeanTileFrac   float64 // over non-dropped captures
	TotalDownBytes int64
	// RequiredDownlinkBps is the paper's metric: bytes per (satellite,
	// day) pair with downloads, through the contact window.
	RequiredDownlinkBps float64
	MeanRefAge          float64 // over captures that used a reference
	MeanUpBytesPerDay   float64
}

// Accumulator folds Records into a Summary one at a time, so streaming
// runs (RunStream) can aggregate whole-constellation experiments without
// retaining the record set. Add every record, then call Summary with the
// run-level aggregates.
type Accumulator struct {
	s          Summary
	psnrSum    float64
	psnrN      int
	bytesSum   float64
	tileSum    float64
	nonDropped int
	refSum     float64
	refN       int
	perSatDay  map[[2]int]int64
}

// NewAccumulator returns an empty accumulator.
func NewAccumulator() *Accumulator {
	return &Accumulator{perSatDay: map[[2]int]int64{}}
}

// Add folds one record in. It is not safe for concurrent use; RunStream
// emits from a single goroutine.
func (a *Accumulator) Add(r *Record) {
	a.s.Captures++
	if r.Dropped {
		a.s.Dropped++
		return
	}
	a.nonDropped++
	a.bytesSum += float64(r.DownBytes)
	a.tileSum += r.DownTileFrac
	a.s.TotalDownBytes += r.DownBytes
	a.perSatDay[[2]int{r.Sat, r.Day}] += r.DownBytes
	if !math.IsNaN(r.PSNR) && !math.IsInf(r.PSNR, 0) {
		a.psnrSum += r.PSNR
		a.psnrN++
	}
	if r.RefAge >= 0 {
		a.refSum += float64(r.RefAge)
		a.refN++
	}
}

// Summary finalises the aggregates for a run (res supplies the day count
// and uplink consumption; its Records are not read, so it may come from a
// streaming run).
func (a *Accumulator) Summary(res *Result, down link.Budget) Summary {
	s := a.s
	if a.psnrN > 0 {
		s.MeanPSNR = a.psnrSum / float64(a.psnrN)
	}
	if a.nonDropped > 0 {
		s.MeanDownBytes = a.bytesSum / float64(a.nonDropped)
		s.MeanTileFrac = a.tileSum / float64(a.nonDropped)
	}
	if a.refN > 0 {
		s.MeanRefAge = a.refSum / float64(a.refN)
	}
	if len(a.perSatDay) > 0 {
		// Sum in sorted key order: float addition is order-sensitive and
		// map iteration is randomised, so a raw range would make the
		// summary differ in the last ulp between identical runs.
		keys := make([][2]int, 0, len(a.perSatDay))
		for k := range a.perSatDay {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool {
			if keys[i][0] != keys[j][0] {
				return keys[i][0] < keys[j][0]
			}
			return keys[i][1] < keys[j][1]
		})
		var bpsSum float64
		secondsPerDay := down.SecondsPerContact * float64(down.ContactsPerDay)
		for _, k := range keys {
			bpsSum += float64(a.perSatDay[k]) * 8 / secondsPerDay
		}
		s.RequiredDownlinkBps = bpsSum / float64(len(a.perSatDay))
	}
	if res.Days > 0 {
		var up int64
		//lint:deterministic integer sum over map values is order-independent
		for _, b := range res.UpBytesByDay {
			up += b
		}
		s.MeanUpBytesPerDay = float64(up) / float64(res.Days)
	}
	return s
}

// Summarize computes aggregates from a retained-record run under the given
// downlink model.
func Summarize(res *Result, down link.Budget) Summary {
	a := NewAccumulator()
	for i := range res.Records {
		a.Add(&res.Records[i])
	}
	return a.Summary(res, down)
}
