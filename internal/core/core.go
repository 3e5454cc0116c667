// Package core implements Earth+ itself — the paper's contribution: a
// constellation-wide reference-based on-board compression system. Each
// satellite keeps downsampled reference images for the locations it will
// visit, detects changed 64x64 tiles against them (after cheap cloud
// removal and illumination alignment), and downloads only the changed
// tiles; the ground refreshes every satellite's references with the
// freshest cloud-free image any satellite produced, delta-encoded to fit
// the narrow uplink (§4).
package core

import (
	"fmt"
	"sync/atomic"
	"time"

	"earthplus/internal/cloud"
	"earthplus/internal/codec"
	"earthplus/internal/constellation"
	"earthplus/internal/container"
	"earthplus/internal/link"
	"earthplus/internal/raster"
	"earthplus/internal/sat"
	"earthplus/internal/scene"
	"earthplus/internal/sim"
	"earthplus/internal/station"
)

// Config holds Earth+'s tunables.
type Config struct {
	// Theta is the change threshold at detection resolution, chosen by
	// profiling year-1 data (§5); see the experiments package.
	Theta float64
	// GammaBPP is γ: bits per pixel spent on each downloaded tile (§5).
	GammaBPP float64
	// RefDownsample is the per-axis reference downsampling factor (§4.3).
	RefDownsample int
	// GuaranteePeriodDays is the guaranteed-download cadence (§5).
	GuaranteePeriodDays int
	// RejectCloudFrac makes the ground discard downloaded tiles whose
	// accurately-detected cloud fraction exceeds it instead of applying
	// them to the archive — the operational payoff of ground-side cloud
	// re-detection (§4.3): archives and hence references stay cloud-free
	// even though the cheap on-board detector lets haze through. Zero
	// disables rejection (the ablation bench sweeps this).
	RejectCloudFrac float64
	// StorageBytes caps each satellite's on-board reference store. Zero
	// means the paper's Table 1 default (orbit.DovesSpec().StorageBytes,
	// 360 GB — never binding at modeled scene scale, so results match the
	// unbounded pre-storage-model behavior byte for byte); negative means
	// explicitly unlimited. References are accounted at the detection
	// resolution, sat.RawBitsPerSample bits per stored sample.
	StorageBytes int64
	// EvictPolicy picks which reference goes first when the store is full
	// ("lru" | "schedule"; empty = lru). See sat.Policies.
	EvictPolicy string
	// LinkFaults configures the deterministic fault injector on the
	// ground<->satellite channel (per-frame drop / corrupt / truncate,
	// whole-contact cancel; see link.FaultConfig). The zero value is the
	// perfect channel and keeps every code path — and therefore every
	// Record and trace byte — identical to the pre-injector behavior.
	// With faults on, uplinked reference updates are CRC-gated on board
	// and NACKed back to the ground (which re-sends them with bounded
	// retry priority), and lost downlink frames leave the ground archive
	// stale for that capture.
	LinkFaults link.FaultConfig
	// RefCompression stores each on-board reference as its encoded
	// codestream at the uplink's reference rate (RefBPP, lossy) instead
	// of raw planes: the store charges real encoded bytes against
	// StorageBytes (about 2.7x below the raw sat.RawBitsPerSample rate,
	// so the same budget holds ~2.7x more locations), captures decode the
	// reference on visit, and the ground builds every stored reference
	// through the same sat.Storage so delta uplinks stay bit-coherent
	// with what the satellite's store decodes. Off (the default) keeps
	// the raw store and is byte-identical to the pre-compression behavior.
	RefCompression bool
	// Constellation enables the contended ground-station model: N
	// stations, each serving at most one satellite per contact window,
	// with per-contact uplink budgets replacing the flat per-day budget
	// and a cross-satellite priority scheduler on top of PackUplink's
	// three classes. The zero value keeps the flat-budget behavior byte
	// for byte. See internal/constellation.
	Constellation constellation.Config
	// CodecOpts configures the wavelet codec.
	CodecOpts codec.Options
}

// Fixed operating points of the pipeline: no experiment or flag varies
// them.
const (
	// dropCoverage drops captures with more detected cloud than this.
	dropCoverage = 0.5
	// cloudTileFrac marks a tile cloudy above this cloudy-pixel fraction.
	cloudTileFrac = 0.25
	// guaranteeMaxCloud is the most cloud a guaranteed download accepts.
	guaranteeMaxCloud = 0.05
	// RefBPP is the bits per pixel spent on uplinked reference tiles, and
	// the rate compressed references are stored at.
	RefBPP = 6.0
	// maxRefCloud bounds reference-candidate cloudiness. The paper uses
	// <1% on whole images; our ground promotes the cloud-free archive
	// MOSAIC (cloudy tiles keep their older clear content), so a looser
	// gate only staggers per-tile freshness and never injects clouds.
	maxRefCloud = 0.05
	// lookaheadDays is how far ahead reference uploads are planned.
	lookaheadDays = 3
)

// DefaultConfig returns the configuration used across the experiments.
func DefaultConfig() Config {
	return Config{
		Theta:               0.008,
		GammaBPP:            1.0,
		RefDownsample:       4,
		GuaranteePeriodDays: 30,
		RejectCloudFrac:     0, // self-heal via re-download beats rejection (see ablation bench)
		StorageBytes:        0, // Table 1 default (360 GB)
		EvictPolicy:         string(sat.PolicyLRU),
		CodecOpts:           codec.DefaultOptions(),
	}
}

// System is the Earth+ implementation of sim.System.
//
// Concurrency: OnCapture is safe for concurrent calls on DISTINCT
// locations (the sharded engine's contract). All mutable state is sharded
// by location — lastGuar and the ground segment's archive/reference slots
// are per-location, the per-satellite reference caches are only visited
// during captures (RefCache locks internally) — and the cross-location
// uplink packing happens in OnDayEnd, which the engine runs on its
// sequential day-end barrier.
type System struct {
	cfg      Config
	env      *sim.Env
	pipeline *sat.Pipeline
	// caches holds one reference cache per satellite id. New fills it and
	// nothing writes the slice again, so captures read it without a lock.
	caches []*sat.RefCache
	ground *station.Ground
	// channel is the fault-injected link (nil = perfect channel, which
	// bypasses the injector entirely). Transmit outcomes are pure
	// functions of (seed, direction, sat, day, loc), so concurrent
	// downlink draws from sharded workers stay deterministic; linkStats
	// counters are atomic for the same reason.
	channel   *link.Channel
	linkStats linkCounters
	// refDecodes counts the stored frames the pipeline decoded, and
	// refDecodeNanos the wall-clock it spent on them: the compressed
	// store's on-board price. Bumped from concurrent capture workers.
	refDecodes, refDecodeNanos atomic.Int64
	// sched books ground-station contact windows when the constellation
	// model is on (nil otherwise); contactBudget is the resolved
	// per-contact uplink byte budget (-1 = unlimited) and contacts is the
	// run's booked-contact log. All three are only touched from New and
	// the sequential day-end barrier.
	sched         *constellation.Scheduler
	contactBudget int64
	contacts      []sim.ContactRecord
	lastGuar      []int // per location: day of last guaranteed download
	// planned[sat][day%RevisitDays] lists the locations sat visits within
	// the lookahead window after such a day, soonest first. The orbit
	// schedule is periodic in RevisitDays, so these sets are precomputed
	// once in New; OnDayEnd used to rebuild them every day with a linear
	// membership scan per visit.
	planned [][][]int
}

var _ sim.System = (*System)(nil)

// New wires an Earth+ system for the environment.
func New(env *sim.Env, cfg Config) (*System, error) {
	bands := env.Scene.Bands()
	grid := env.Scene.Grid()
	if cfg.RefDownsample <= 0 || grid.Tile%cfg.RefDownsample != 0 {
		return nil, fmt.Errorf("core: RefDownsample %d incompatible with tile %d", cfg.RefDownsample, grid.Tile)
	}
	var channel *link.Channel
	if cfg.LinkFaults.Enabled() {
		var err error
		if channel, err = link.NewChannel(cfg.LinkFaults); err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
	} else if err := cfg.LinkFaults.Validate(); err != nil {
		// Negative rates never fire but must still be rejected loudly.
		return nil, fmt.Errorf("core: %w", err)
	}
	// One representation for uplink and storage: references live on board
	// at the rate and with the codec options they arrive at, and the ground
	// builds every stored reference through the same Storage.
	storage := sat.Storage{Compress: cfg.RefCompression, BPP: RefBPP, Codec: cfg.CodecOpts}
	ground, err := station.NewGround(station.Config{
		Bands:       bands,
		Grid:        grid,
		Downsample:  cfg.RefDownsample,
		Accurate:    cloud.DefaultTemporal(bands),
		Storage:     storage,
		MaxRefCloud: maxRefCloud,
	}, env.Scene.NumLocations())
	if err != nil {
		return nil, err
	}
	lastGuar := make([]int, env.Scene.NumLocations())
	for i := range lastGuar {
		lastGuar[i] = -1 << 30
	}
	// Each satellite's cache is bounded by its storage budget; the
	// schedule policy predicts revisits from the same orbit schedule the
	// uplink planner's per-phase visit sets are built from.
	caches := make([]*sat.RefCache, env.Orbit.Satellites)
	for id := range caches {
		cache, err := sat.NewBoundedRefCache(sat.CacheConfig{
			BudgetBytes: sat.ResolveBudget(cfg.StorageBytes),
			Policy:      sat.Policy(cfg.EvictPolicy),
			NextVisit: func(loc, afterDay int) int {
				return env.Orbit.NextVisit(id, loc, afterDay)
			},
			Storage: storage,
		})
		if err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
		caches[id] = cache
	}
	var sched *constellation.Scheduler
	contactBudget := int64(0)
	if cfg.Constellation.Enabled() {
		if sched, err = constellation.NewScheduler(cfg.Constellation); err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
		contactBudget = cfg.Constellation.ResolveContactBudget(env.UplinkBytesPerDay)
	} else if err := cfg.Constellation.Validate(); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	return &System{
		cfg:           cfg,
		env:           env,
		sched:         sched,
		contactBudget: contactBudget,
		planned:       planVisits(env, lookaheadDays),
		pipeline: &sat.Pipeline{
			Bands:         bands,
			Grid:          grid,
			Downsample:    cfg.RefDownsample,
			CloudDet:      cloud.DefaultCheap(bands),
			Theta:         cfg.Theta,
			DropCoverage:  dropCoverage,
			CloudTileFrac: cloudTileFrac,
		},
		caches:   caches,
		ground:   ground,
		channel:  channel,
		lastGuar: lastGuar,
	}, nil
}

// Name implements sim.System.
func (s *System) Name() string { return "Earth+" }

// Bootstrap implements sim.System: it seeds the ground archive and every
// satellite's reference cache with the location's pre-mission history.
func (s *System) Bootstrap(cap *scene.Capture) error {
	sats := make([]int, s.env.Orbit.Satellites)
	for i := range sats {
		sats[i] = i
	}
	// Every satellite stores the same seed, and stored references are
	// immutable, so the stores share the one Ref the ground built for its
	// mirrors.
	ref, err := s.ground.SeedBootstrap(cap.Loc, cap.Day, cap.Truth, sats)
	if err != nil {
		return err
	}
	for _, id := range sats {
		for _, loc := range s.caches[id].Install(cap.Loc, ref, cap.Day) {
			// A bootstrap store already over budget sheds references; the
			// ground must not believe the satellite still holds them.
			s.ground.InvalidateMirror(id, loc)
		}
	}
	s.lastGuar[cap.Loc] = cap.Day
	return nil
}

// OnCapture implements sim.System: the on-board pipeline followed by the
// ground-side application of the downloaded tiles.
func (s *System) OnCapture(cap *scene.Capture) (sim.Outcome, error) {
	grid := s.env.Scene.Grid()
	// Visit (not Get), for every capture: the lookup records recency for
	// eviction and counts misses. A miss — the reference was evicted under
	// the storage budget — leaves ref nil, and the ROI selection below
	// falls back to reference-free encoding of every non-cloudy tile; the
	// ground re-seeds the reference on the next uplink cycle.
	ref, refDay := s.caches[cap.Sat].Visit(cap.Loc, cap.Day)
	res, err := s.pipeline.Process(cap.Image, ref)
	if err != nil {
		return sim.Outcome{}, err
	}
	out := sim.Outcome{
		TotalTiles: grid.NumTiles(),
		CloudSec:   res.CloudSec,
		ChangeSec:  res.ChangeSec,
		RefAge:     -1,
		RefMiss:    ref == nil,
	}
	if ref != nil {
		out.RefAge = cap.Day - refDay
	}
	if res.Dropped {
		out.Dropped = true
		return out, nil
	}
	if ref != nil && ref.Frame != nil {
		// The pipeline decoded the stored frame for this kept capture.
		s.refDecodes.Add(1)
		s.refDecodeNanos.Add(int64(res.DecodeSec * float64(time.Second)))
	}

	// Pick this capture's region of interest per band.
	nonCloud := res.CloudTiles.Clone()
	nonCloud.Invert()
	guaranteed := cap.Day-s.lastGuar[cap.Loc] >= s.cfg.GuaranteePeriodDays &&
		res.CloudCover <= guaranteeMaxCloud
	roi := res.Changed
	if guaranteed || roi == nil {
		// Guaranteed download (§5), or no usable reference: everything
		// that is not cloudy goes down.
		roi = make([]*raster.TileMask, len(s.pipeline.Bands))
		for b := range roi {
			roi[b] = nonCloud
		}
		if guaranteed {
			s.lastGuar[cap.Loc] = cap.Day
			out.Guaranteed = true
		}
	}

	// Normalise the capture into the reference illumination domain before
	// encoding so the ground archive stays radiometrically coherent.
	work := cap.Image.Clone()
	if res.Illum != nil {
		for b := range work.Pix {
			res.Illum[b].Normalize(work.Plane(b))
		}
	}
	tEnc := time.Now()
	frame, err := sat.EncodeROI(work, roi, s.cfg.GammaBPP, s.cfg.CodecOpts)
	if err != nil {
		return sim.Outcome{}, err
	}
	out.EncodeSec = time.Since(tEnc).Seconds()
	out.PerBandBytes, out.DownBytes, out.DownTilesPerBand, err = sat.DownlinkCharge(frame, roi)
	if err != nil {
		return sim.Outcome{}, err
	}

	// Downlink fault injection: the frame was transmitted (DownBytes is
	// spent either way), but only what survives the channel reaches the
	// ground, and the ground's CRC gate rejects damaged frames whole
	// rather than splicing garbage into the archive. A lost frame leaves
	// the archive (and this capture's Recon) stale; there is no downlink
	// retransmit — the next visit re-captures fresher content anyway. The
	// guaranteed-download bookkeeping above stands: the satellite cannot
	// observe the loss at capture time.
	if s.channel.Enabled() {
		s.linkStats.downFrames.Add(1)
		rx, txo := s.channel.Transmit(link.Downlink, cap.Sat, cap.Day, cap.Loc, frame)
		if !txo.Arrived() {
			s.linkStats.downDropped.Add(1)
			out.DownDropped = true
			out.Recon = s.ground.Recon(cap.Loc)
			return out, nil
		}
		if err := container.Codestream(rx).Validate(); err != nil {
			s.linkStats.downCorrupted.Add(1)
			out.DownCorrupted = true
			out.Recon = s.ground.Recon(cap.Loc)
			return out, nil
		}
	}

	// Ground side: re-detect clouds accurately against the archive, apply
	// the download while rejecting haze-contaminated tiles, then refresh
	// the reference candidacy.
	var reject *raster.TileMask
	if s.cfg.RejectCloudFrac > 0 {
		// Pre-application detection: contaminated tiles must be caught
		// before they enter the archive.
		preMask := s.ground.AccurateMask(cap.Image, cap.Loc)
		reject = preMask.TileMask(grid, s.cfg.RejectCloudFrac)
	}
	if err := s.ground.ApplyDownload(cap.Loc, cap.Day, frame, roi, reject); err != nil {
		return sim.Outcome{}, err
	}
	// Promotion coverage must be assessed against the REFRESHED archive:
	// before the download lands, accumulated terrestrial change would
	// read as cloud and block every promotion.
	postMask := s.ground.AccurateMask(cap.Image, cap.Loc)
	if _, err := s.ground.MaybePromote(cap.Loc, cap.Day, postMask.Coverage()); err != nil {
		return sim.Outcome{}, err
	}
	out.Recon = s.ground.Recon(cap.Loc)
	return out, nil
}

// OnDayEnd implements sim.System: the ground packs reference updates for
// the day's contacts (see book), each against its own meter, in booking
// order. The ground codes each distinct reference update once per day end
// and shares it across satellites; those updates are dropped when the day
// end returns.
func (s *System) OnDayEnd(day int) (int64, error) {
	defer s.ground.EndUplinkDay()
	contacts, budget := s.book(day)
	var total int64
	for i := range contacts {
		ct := &contacts[i]
		meter := link.NewMeter(budget)
		updates, err := s.ground.PackUplink(ct.Sat, day, s.plannedLocs(ct.Sat, day), meter)
		if err != nil {
			return total, err
		}
		ct.Bytes = s.deliverUpdates(ct.Sat, day, updates)
		total += ct.Bytes
	}
	if s.sched != nil {
		s.contacts = append(s.contacts, contacts...)
	}
	return total, nil
}

// book returns the day's uplink contacts and the byte budget of each.
// Under the flat per-day budget every satellite with planned visits gets
// one unlogged contact at Env.UplinkBytesPerDay, in satellite order. With
// the constellation model on, each such satellite's pending uplink work
// (station.Ground.PendingUplink over its planned visit window) becomes a
// cross-satellite demand, and the scheduler books the day's station
// contact windows at the per-contact budget. A satellite booked into
// several windows keeps packing where the last contact left off —
// PackUplink skips locations whose mirror is already current. Satellites
// whose pending work won no window stall until tomorrow: that starvation,
// not a shrunken budget, is what station contention costs.
func (s *System) book(day int) ([]sim.ContactRecord, int64) {
	var flat []sim.ContactRecord
	var demands []constellation.Demand
	for satID := 0; satID < s.env.Orbit.Satellites; satID++ {
		locs := s.plannedLocs(satID, day)
		if len(locs) == 0 {
			continue
		}
		if s.sched == nil {
			flat = append(flat, sim.ContactRecord{Sat: satID, Day: day})
			continue
		}
		re, de, dm := s.ground.PendingUplink(satID, locs)
		demands = append(demands, constellation.Demand{
			Sat: satID, Reseeds: re, Deltas: de, Demoted: dm,
		})
	}
	if s.sched == nil {
		return flat, s.env.UplinkBytesPerDay
	}
	return s.sched.Schedule(day, demands), s.contactBudget
}

// deliverUpdates transmits one satellite's packed updates through the
// (possibly fault-injected) channel and installs what survives, returning
// the uplink bytes transmitted. It runs only on the sequential day-end
// barrier.
func (s *System) deliverUpdates(satID, day int, updates []station.RefUpdate) int64 {
	cache := s.caches[satID]
	if s.channel.Enabled() && len(updates) > 0 && s.channel.ContactCanceled(link.Uplink, satID, day) {
		s.linkStats.upContactsLost.Add(1)
	}
	var total int64
	for _, u := range updates {
		// The bytes were transmitted (and PackUplink already consumed
		// them from the day's meter) whether or not delivery succeeds:
		// retransmissions therefore compete INSIDE the same budget,
		// never on top of it.
		total += u.Bytes
		if !s.channel.Enabled() {
			s.install(cache, satID, u)
			continue
		}
		s.linkStats.upUpdates.Add(1)
		if u.Retransmit {
			s.linkStats.retransmits.Add(1)
			s.linkStats.retransmitBytes.Add(u.Bytes)
		}
		rx, txo := s.channel.Transmit(link.Uplink, satID, day, u.Loc, u.Frame)
		if !txo.Arrived() {
			// Nothing reached the satellite; the missing per-update ACK
			// tells the ground, which rolls its optimistic mirror commit
			// back so the next contact re-sends the full reference.
			s.linkStats.upDropped.Add(1)
			s.ground.NackDelivery(satID, u.Loc)
			continue
		}
		// CRC gate: a damaged frame (single-byte corruption is always
		// CRC-32C detectable, truncation breaks the parse) is rejected
		// whole and NACKed; the on-board cache keeps its stale but
		// coherent reference. Once the received bytes validate they
		// equal the sent bytes, so installing the ground-computed Ref is
		// exactly what decoding rx would produce.
		if err := container.Codestream(rx).Validate(); err != nil {
			s.linkStats.upCorrupted.Add(1)
			s.ground.NackDelivery(satID, u.Loc)
			continue
		}
		if u.Ref.Frame != nil {
			// Defense in depth for a compressed store: the storage frame
			// goes into the store verbatim, so it passes the same gate
			// before Install may keep it.
			if err := u.Ref.Frame.Validate(); err != nil {
				s.linkStats.upCorrupted.Add(1)
				s.ground.NackDelivery(satID, u.Loc)
				continue
			}
		}
		s.install(cache, satID, u)
		s.ground.AckDelivery(satID, u.Loc)
	}
	return total
}

// ContactLog implements sim.ContactReporter: the booked ground-station
// contacts of the run, nil under the flat per-day budget. Contacts carry
// no wall-clock fields and scheduling runs only on the serial day-end
// barrier, so the log is byte-identical at any engine worker count.
func (s *System) ContactLog() []sim.ContactRecord { return s.contacts }

// ContactBudget returns the resolved per-contact uplink budget in bytes
// (-1 = unlimited; 0 when the constellation model is off).
func (s *System) ContactBudget() int64 { return s.contactBudget }

// ConstellationStats snapshots the contact scheduler's outcomes (zero
// value when the constellation model is off).
func (s *System) ConstellationStats() constellation.Stats {
	if s.sched == nil {
		return constellation.Stats{}
	}
	return s.sched.Stats()
}

// install applies one delivered update to a satellite's store: the Ref the
// ground built goes in as is, with no re-encode on board. Installing can
// push the store over budget; every eviction invalidates the ground's
// mirror so the next cycle re-sends the full reference instead of a stale
// delta. This runs on the engine's sequential day-end barrier, so
// eviction order is identical at any worker count.
func (s *System) install(cache *sat.RefCache, satID int, u station.RefUpdate) {
	for _, loc := range cache.Install(u.Loc, u.Ref, u.Day) {
		s.ground.InvalidateMirror(satID, loc)
	}
}

// planVisits precomputes, for every (satellite, day phase) pair, the
// deduplicated locations the satellite visits within lookahead days after
// a day with that phase, soonest first (the paper predicts passes from
// TLE data, §4.2). The visit schedule only depends on day modulo the
// revisit period, so one table covers the whole mission.
func planVisits(env *sim.Env, lookahead int) [][][]int {
	period := env.Orbit.RevisitDays
	nLoc := env.Scene.NumLocations()
	if period <= 0 || env.Orbit.Satellites <= 0 {
		return nil // invalid orbit; the simulator rejects it before any run
	}
	planned := make([][][]int, env.Orbit.Satellites)
	seen := make([]bool, nLoc)
	for satID := range planned {
		planned[satID] = make([][]int, period)
		for p := 0; p < period; p++ {
			clear(seen)
			var locs []int
			for d := 1; d <= lookahead; d++ {
				// p+d is a representative day ≥ 0 with the right phase.
				for loc := 0; loc < nLoc; loc++ {
					if !seen[loc] && env.Orbit.Visits(satID, loc, p+d) {
						seen[loc] = true
						locs = append(locs, loc)
					}
				}
			}
			planned[satID][p] = locs
		}
	}
	return planned
}

// plannedLocs returns the precomputed lookahead visit list for satID after
// day. Callers must not mutate the returned slice.
func (s *System) plannedLocs(satID, day int) []int {
	period := s.env.Orbit.RevisitDays
	if period <= 0 || satID < 0 || satID >= len(s.planned) {
		return nil
	}
	return s.planned[satID][((day%period)+period)%period]
}

// Ground exposes the ground segment for experiments (storage and uplink
// accounting).
func (s *System) Ground() *station.Ground { return s.ground }

// RefCacheBytes reports the on-board reference cache footprint of one
// satellite at the store's sat.RawBitsPerSample accounting.
func (s *System) RefCacheBytes(satID int) int64 {
	return s.caches[satID].StorageBytes()
}

// StorageStats sums capacity evictions and reference-lookup misses across
// the fleet's on-board stores — the observable signal that a storage
// budget is binding (the storage-sweep experiment reports it).
func (s *System) StorageStats() (evictions, misses int64) {
	for _, c := range s.caches {
		e, m := c.Stats()
		evictions += e
		misses += m
	}
	return evictions, misses
}

// ResidentRefs sums the fleet's resident reference count and its REAL
// accounted footprint (encoded bytes under RefCompression, raw-rate bytes
// otherwise) — what the storage sweep reads to show how many locations a
// budget actually holds.
func (s *System) ResidentRefs() (locations int, bytes int64) {
	for _, c := range s.caches {
		locations += c.Len()
		bytes += c.FootprintBytes()
	}
	return locations, bytes
}

// linkCounters tallies channel fault events. Downlink counters are
// bumped from concurrent capture workers, hence atomics; the totals are
// order-independent so they stay deterministic at any worker count.
type linkCounters struct {
	upUpdates, upDropped, upCorrupted, upContactsLost atomic.Int64
	retransmits, retransmitBytes                      atomic.Int64
	downFrames, downDropped, downCorrupted            atomic.Int64
}

// LinkStats is a snapshot of the fault-injected channel's observable
// effects over a run. All fields are zero on the perfect channel.
type LinkStats struct {
	// UplinkUpdates counts reference updates offered to the channel;
	// UplinkDropped those that vanished (frame drop or canceled
	// contact), UplinkCorrupted those that arrived damaged and were
	// rejected by the satellite's CRC gate, and UplinkContactsLost the
	// canceled (satellite, day) contact windows.
	UplinkUpdates, UplinkDropped, UplinkCorrupted, UplinkContactsLost int64
	// Retransmits counts updates re-sending previously failed content;
	// RetransmitBytes is their uplink cost, consumed from the same daily
	// budget as first transmissions.
	Retransmits, RetransmitBytes int64
	// DownlinkFrames counts capture downloads offered to the channel;
	// DownlinkDropped/DownlinkCorrupted the ones the ground never
	// applied.
	DownlinkFrames, DownlinkDropped, DownlinkCorrupted int64
}

// LinkStats snapshots the channel fault counters for this run.
func (s *System) LinkStats() LinkStats {
	return LinkStats{
		UplinkUpdates:      s.linkStats.upUpdates.Load(),
		UplinkDropped:      s.linkStats.upDropped.Load(),
		UplinkCorrupted:    s.linkStats.upCorrupted.Load(),
		UplinkContactsLost: s.linkStats.upContactsLost.Load(),
		Retransmits:        s.linkStats.retransmits.Load(),
		RetransmitBytes:    s.linkStats.retransmitBytes.Load(),
		DownlinkFrames:     s.linkStats.downFrames.Load(),
		DownlinkDropped:    s.linkStats.downDropped.Load(),
		DownlinkCorrupted:  s.linkStats.downCorrupted.Load(),
	}
}

// DecodeStats counts the fleet's reference frame decodes (zero without
// RefCompression): one per capture that hit a compressed store and
// survived the cloud drop. The store keeps no decoded planes, so lruHits
// is always 0; the benchmark reads both.
func (s *System) DecodeStats() (decodes, lruHits int64) {
	return s.refDecodes.Load(), 0
}

// DecodeWall sums the wall-clock of those decodes (zero without
// RefCompression). Advisory, as a wall-clock, but it is the measured
// CPU price of the compressed store, which the repo benchmark reports
// alongside the counters.
func (s *System) DecodeWall() time.Duration {
	return time.Duration(s.refDecodeNanos.Load())
}

// SpliceTileStats reports the ground segment's per-tile mirror splice
// counters under the tiled store profile: codec tiles re-encoded versus
// the tiles whole-mirror re-encodes would have touched. Advisory: the
// counters never influence results.
func (s *System) SpliceTileStats() (reencoded, total int64) {
	return s.ground.SpliceTileStats()
}
