// Package station implements the ground half of Earth+ (§4.2-§4.3): the
// per-location image archive assembled from downloaded tiles, accurate
// cloud re-detection, constellation-wide selection of the freshest
// cloud-free reference, and delta-encoded reference uploads packed into the
// scarce uplink budget.
package station

import (
	"bytes"
	"fmt"
	"math"
	"sort"
	"sync"

	"earthplus/internal/cloud"
	"earthplus/internal/codec"
	"earthplus/internal/container"
	"earthplus/internal/link"
	"earthplus/internal/raster"
	"earthplus/internal/sat"
)

// refState is a downsampled reference candidate or mirror. A mirror also
// keeps the sat.Ref the satellite's store holds (ref), whose content img
// is, so a tiled store's next delta update can be spliced per tile into
// its frame instead of re-encoding the whole reference.
//
// Ownership: img and ref are immutable values, shared freely — one
// bootstrap seed or one coded update backs the mirrors and the on-board
// stores of every satellite that holds that content, and a ground
// reference may back mirrors and raw stores too. Neither side ever mutates
// a reference image (sat.RefCache splices into a new one), so code that
// needs different content builds a new image. Only the struct itself (its
// day) is per-satellite state, so a refState is never shared between two
// mirror slots.
type refState struct {
	img *raster.Image
	day int
	ref sat.Ref
}

// Ground is the ground-segment state shared by all ground stations (the
// paper treats connected ground stations as one logical overlay point).
//
// Concurrency: all per-location state (archive, bestRef) is sharded by
// location and guarded by a per-location lock, so the sharded simulation
// engine may process distinct locations concurrently; calls for the SAME
// location must stay ordered (the engine serialises each location's visit
// sequence). The per-satellite mirrors are only touched by the day-end
// uplink packing, which runs on the engine's sequential barrier, and are
// guarded by their own lock.
type Ground struct {
	bands      []raster.BandInfo
	grid       raster.TileGrid
	downsample int
	accurate   cloud.Detector
	// storage is what each satellite's store keeps (Config.Storage).
	storage sat.Storage
	// maxRefCloud is the coverage bound for reference candidacy (<1%).
	maxRefCloud float64

	locMu   []sync.Mutex    // per location: guards archive[loc] and bestRef[loc]
	archive []*raster.Image // per location: latest known full-res content
	bestRef []*refState     // per location: freshest cloud-free reference (downsampled)
	// maxRetransmits bounds how many consecutive failed deliveries keep a
	// location in the head-of-line re-seed class (Config.MaxRetransmits).
	maxRetransmits int

	// mirrors[sat][loc] tracks what each satellite's on-board cache holds,
	// so uploads can carry only changed reference tiles (§4.3).
	// retries[sat][loc] counts CONSECUTIVE failed deliveries (NackDelivery
	// without an intervening AckDelivery) — the retransmit accounting a
	// lossy channel's delivery loop feeds back. Both share mirrorMu: a
	// NACK atomically invalidates the mirror and bumps the counter.
	mirrorMu sync.Mutex
	mirrors  map[int][]*refState
	retries  map[int]map[int]int
	// spliceReencoded / spliceTotal count, across every tiled mirror
	// splice a packed update carries, the codec tiles re-encoded versus
	// the tiles a whole-frame re-encode would have touched — the
	// ground-side measurement of the tiled profile's per-tile splice
	// saving. An update shared by several satellites counts once per
	// satellite, like the splices their stores perform.
	spliceReencoded, spliceTotal int64
	// memo shares the day's untrimmed reference updates across
	// satellites (see sharedUpdate); memoDay is the day that built it.
	// Guarded by mirrorMu, dropped by EndUplinkDay.
	memo    map[memoKey][]*memoEntry
	memoDay int
}

// Config parameterises the ground segment.
type Config struct {
	Bands      []raster.BandInfo
	Grid       raster.TileGrid
	Downsample int
	Accurate   cloud.Detector
	// Storage is what each satellite's store keeps for a reference
	// (sat.CacheConfig.Storage). Every reference entering a mirror — the
	// bootstrap seed, each delta-applied update — becomes the sat.Ref
	// Storage builds for it, which PackUplink ships for the store to
	// install, and the mirror holds that Ref's Load: byte-equal to what the
	// store decodes, the invariant delta uplinks are encoded against.
	// Reference updates are coded for the uplink at Storage.BPP with
	// Storage.Codec, so BPP must be positive even for a raw store.
	Storage sat.Storage
	// MaxRefCloud is the maximum accurate-detected coverage for an image
	// to become a reference (the paper uses <1%).
	MaxRefCloud float64
	// MaxRetransmits bounds how many consecutive failed deliveries a
	// location's re-send keeps head-of-line re-seed priority for; beyond
	// it the location is demoted behind routine delta updates until a
	// delivery succeeds (AckDelivery resets the count), so a persistently
	// bad link cannot starve every other location's freshness. Zero means
	// DefaultMaxRetransmits; negative means never demote.
	MaxRetransmits int
}

// DefaultMaxRetransmits is the Config.MaxRetransmits default.
const DefaultMaxRetransmits = 8

// NewGround builds the ground segment for numLocations locations.
func NewGround(cfg Config, numLocations int) (*Ground, error) {
	if cfg.Downsample <= 0 || cfg.Grid.Tile%cfg.Downsample != 0 {
		return nil, fmt.Errorf("station: downsample %d incompatible with tile %d", cfg.Downsample, cfg.Grid.Tile)
	}
	if cfg.Storage.BPP <= 0 {
		return nil, fmt.Errorf("station: Storage.BPP must be positive")
	}
	maxRetx := cfg.MaxRetransmits
	if maxRetx == 0 {
		maxRetx = DefaultMaxRetransmits
	}
	return &Ground{
		bands:          cfg.Bands,
		grid:           cfg.Grid,
		downsample:     cfg.Downsample,
		accurate:       cfg.Accurate,
		storage:        cfg.Storage,
		maxRefCloud:    cfg.MaxRefCloud,
		maxRetransmits: maxRetx,
		locMu:          make([]sync.Mutex, numLocations),
		archive:        make([]*raster.Image, numLocations),
		bestRef:        make([]*refState, numLocations),
		mirrors:        make(map[int][]*refState),
		retries:        make(map[int]map[int]int),
	}, nil
}

// Archive returns the ground's current full-resolution view of loc (nil
// before any download). Callers must not mutate it, and — like every
// same-location operation — must not race it with a concurrent download
// application for the same loc.
func (g *Ground) Archive(loc int) *raster.Image {
	g.locMu[loc].Lock()
	defer g.locMu[loc].Unlock()
	return g.archive[loc]
}

// Recon returns a copy of the archive for evaluation.
func (g *Ground) Recon(loc int) *raster.Image {
	g.locMu[loc].Lock()
	defer g.locMu[loc].Unlock()
	if g.archive[loc] == nil {
		return nil
	}
	return g.archive[loc].Clone()
}

// BestRefDay returns the capture day of loc's current reference, or -1.
func (g *Ground) BestRefDay(loc int) int {
	g.locMu[loc].Lock()
	defer g.locMu[loc].Unlock()
	if g.bestRef[loc] == nil {
		return -1
	}
	return g.bestRef[loc].day
}

// ApplyDownload integrates one capture's downloaded container frame: the
// per-band codec streams inside (absent band = not downloaded) are decoded
// and their ROI tiles copied into the archive. Tiles marked in reject —
// those the ground's accurate detector found cloud-contaminated — are
// decoded but NOT applied, keeping the archive (and hence every future
// reference) haze-free. This is the operational payoff of re-detecting
// clouds on the ground (§4.3).
func (g *Ground) ApplyDownload(loc, day int, cs container.Codestream, perBandROI []*raster.TileMask, reject *raster.TileMask) error {
	g.locMu[loc].Lock()
	defer g.locMu[loc].Unlock()
	archive := g.archive[loc]
	if archive == nil {
		archive = raster.New(g.grid.ImageW, g.grid.ImageH, g.bands)
	}
	// One band at a time: downloads apply inside the engine's capture
	// workers.
	if err := codec.DecodeROIFrame(cs, perBandROI, reject, archive, 1); err != nil {
		return fmt.Errorf("station: loc %d download frame: %w", loc, err)
	}
	g.archive[loc] = archive
	return nil
}

// MaybePromote promotes the archive mosaic to the location's reference
// when the capture's accurately-assessed coverage is low enough.
// Constellation-wide selection falls out naturally: downloads from every
// satellite land in the same archive. It reports whether promotion
// happened.
func (g *Ground) MaybePromote(loc, day int, coverage float64) (bool, error) {
	if coverage > g.maxRefCloud {
		return false, nil
	}
	g.locMu[loc].Lock()
	defer g.locMu[loc].Unlock()
	low, err := g.archive[loc].Downsample(g.downsample)
	if err != nil {
		return false, fmt.Errorf("station: downsampling reference: %w", err)
	}
	g.bestRef[loc] = &refState{img: low, day: day}
	return true, nil
}

// AccurateMask runs the ground's accurate (archive-referenced) detector on
// a capture and returns the detected per-pixel mask.
func (g *Ground) AccurateMask(capImg *raster.Image, loc int) *cloud.Mask {
	if rd, ok := g.accurate.(cloud.ReferenceDetector); ok {
		return rd.DetectWithReference(capImg, g.Archive(loc))
	}
	if g.accurate != nil {
		return g.accurate.Detect(capImg)
	}
	return cloud.NewMask(capImg.Width, capImg.Height)
}

// ReassessCoverage runs the ground's accurate detector over a capture and
// returns its coverage. The paper re-detects clouds on the ground because
// the satellite cannot afford an accurate detector (§4.3); the ground
// detector exploits the archive as a cloud-free reference (the paper's
// detector consumes image sequences [74]).
func (g *Ground) ReassessCoverage(capImg *raster.Image, loc int) float64 {
	if g.accurate == nil {
		return 0
	}
	if rd, ok := g.accurate.(cloud.ReferenceDetector); ok {
		return rd.DetectWithReference(capImg, g.Archive(loc)).Coverage()
	}
	return g.accurate.Detect(capImg).Coverage()
}

// RefUpdate is one packed uplink message: the changed low-resolution
// reference tiles for a location, per band.
//
// Satellites whose mirrors hold the same content receive the same coded
// update, so Decoded, Ref, Frame and PerBand may be shared with other
// satellites' updates and must not be mutated.
type RefUpdate struct {
	Loc int
	// Day is the reference content's capture day.
	Day int
	// Decoded is the full reference as the satellite decodes the uplink
	// frame on top of what it held (what survived the uplink encoding, not
	// the pristine ground copy), before the store's Storage applies. The
	// simulator installs Ref and never reads it; tests splice its PerBand
	// tiles into a store themselves (sat.RefCache.ApplyTileUpdate) and
	// compare shared updates by it.
	Decoded *raster.Image
	// Ref is what the store installs (sat.RefCache.Install): the Storage's
	// Ref for Decoded, whose Load the ground's mirror holds — Decoded
	// itself in a raw store, its frame in a compressed one.
	Ref sat.Ref
	// PerBand marks which low-res tiles each band carries.
	PerBand []*raster.TileMask
	// Bytes is the uplink cost actually consumed.
	Bytes int64
	// Frame is the wire frame the uplink physically carries: the
	// container codestream of this update's delta-encoded bands, CRC
	// trailer included. The delivery loop transmits it through the
	// (possibly lossy) channel and the satellite CRC-gates it before
	// anything is applied on board.
	Frame container.Codestream
	// Retransmit marks updates re-sending content whose previous
	// delivery to this satellite failed (the NackDelivery accounting);
	// their bytes are the retransmission overhead, consumed from the
	// same uplink budget as everything else.
	Retransmit bool
}

// refDiffEps is the low-res mean-abs-diff above which a reference tile is
// re-uploaded. Below it, the on-board tile is already equivalent.
const refDiffEps = 2e-3

// PackUplink prepares reference updates for satellite sat covering the
// given locations, consuming from budget. Locations that no longer fit
// are skipped, matching the paper's random skipping under uplink
// shortage.
//
// The schedule is three-class: pending RE-SEEDS — locations whose mirror
// slot is nil because the on-board store evicted (or never held) the
// reference, or because a delivery failed (NackDelivery), so the
// satellite is flying blind there — drain FIRST, in visit-schedule
// order; then delta freshness updates for references the satellite still
// holds compete for what remains; LAST come re-seeds whose delivery has
// already failed more than MaxRetransmits times in a row, demoted so a
// persistently dead path cannot starve every other location (they still
// re-send whenever budget remains, and one success resets the count).
// Without the re-seed split, a scarce uplink spent in plain schedule
// order on routine freshness deltas could starve exactly the locations
// that just went to MISS, pinning them in reference-free fallback for
// days. All classes preserve the caller's (soonest-visited-first) order
// internally, and class membership is decided solely by serial-phase
// state (bootstrap seeding, day-end evictions and delivery outcomes), so
// packing stays deterministic and byte-identical at any engine worker
// count.
//
// Within one day, an untrimmed update is coded band by band, each band at
// most once per day, and shared by every satellite that needs it (see
// sharedUpdate); a budget-trimmed update depends on the satellite's
// remaining meter and is coded for it alone. Either stops being coded
// once the bands coded so far cost more than the meter has left, since
// it can no longer fit (see codeWithin). Callers packing a whole fleet
// call EndUplinkDay once all satellites of the day are packed.
func (g *Ground) PackUplink(sat, day int, locs []int, budget *link.Meter) ([]RefUpdate, error) {
	g.mirrorMu.Lock()
	defer g.mirrorMu.Unlock()
	if g.memoDay != day {
		g.memo, g.memoDay = nil, day
	}
	mirror := g.mirrors[sat]
	if mirror == nil {
		mirror = make([]*refState, len(g.archive))
		g.mirrors[sat] = mirror
	}
	gLow, err := g.grid.Scaled(g.downsample)
	if err != nil {
		return nil, fmt.Errorf("station: %w", err)
	}
	retries := g.retries[sat]
	ordered := make([]int, 0, len(locs))
	var deltas, demoted []int
	for _, loc := range locs {
		switch {
		case mirror[loc] != nil:
			deltas = append(deltas, loc)
		case g.maxRetransmits >= 0 && retries[loc] > g.maxRetransmits:
			demoted = append(demoted, loc) // retry budget spent: back of the line
		default:
			ordered = append(ordered, loc) // re-seed class: drains first
		}
	}
	ordered = append(append(ordered, deltas...), demoted...)
	var updates []RefUpdate
	for _, loc := range ordered {
		g.locMu[loc].Lock()
		best := g.bestRef[loc]
		g.locMu[loc].Unlock()
		if best == nil {
			continue
		}
		if mirror[loc] != nil && mirror[loc].day >= best.day && mirror[loc].img == best.img {
			continue // nothing new since the last upload
		}
		c := g.sharedUpdate(loc, best, mirror[loc], gLow)
		if c == nil {
			// Content identical; just advance the mirror's age for free.
			mirror[loc].day = best.day
			continue
		}
		coded, err := g.codeWithin(c, best.img, budget.Remaining())
		if err != nil {
			return nil, err
		}
		if !coded || !budget.TryConsume(c.bytes) {
			// The full update does not fit. Ship the most-changed tiles
			// that do — the paper skips reference data under uplink
			// shortage (§5); skipping at tile granularity avoids the
			// deadlock where a whole-image update never fits a small
			// daily budget and the reference ages forever.
			perBand := g.trimUpdateToBudget(c, budget.Remaining())
			totalTiles := 0
			for _, m := range perBand {
				totalTiles += m.Count()
			}
			if totalTiles == 0 {
				continue
			}
			c = &codedUpdate{masks: perBand}
			if coded, err = g.codeWithin(c, best.img, budget.Remaining()); err != nil {
				return nil, err
			}
			if !coded || !budget.TryConsume(c.bytes) {
				continue // not even the trimmed update fits today
			}
		}
		if err := g.admit(c, mirror[loc], best); err != nil {
			return nil, err
		}
		g.spliceReencoded += c.spliceReencoded
		g.spliceTotal += c.spliceTotal
		updates = append(updates, RefUpdate{
			Loc: loc, Day: best.day, Decoded: c.decoded, Ref: c.ref,
			PerBand: c.masks, Bytes: c.bytes, Frame: c.frame,
			Retransmit: retries[loc] > 0,
		})
		mirror[loc] = &refState{img: c.stored, day: best.day, ref: c.ref}
	}
	return updates, nil
}

// EndUplinkDay drops the day's shared reference updates. A caller packing
// a whole fleet calls it once every satellite of the day is packed: the
// next day's promotions make the entries stale, and holding them into the
// next capture phase only raises peak memory. PackUplink also drops them
// itself when called for a new day.
func (g *Ground) EndUplinkDay() {
	g.mirrorMu.Lock()
	defer g.mirrorMu.Unlock()
	g.memo = nil
}

// codedUpdate is one reference update as the ground codes it: its change
// masks, then its bands, coded band by band and each band at most once per
// day (see codeWithin), then the wire frame once every band is coded, and
// — once a satellite's budget admits the update — what that satellite
// ends up holding. Coding only moves forward and every other field is
// immutable once set, so one codedUpdate may back several satellites'
// RefUpdates, and a satellite with a larger meter may continue one that
// an earlier satellite's meter stopped.
type codedUpdate struct {
	masks []*raster.TileMask
	// diffs[b] holds band b's per-tile mean absolute differences between
	// the reference and the mirror that chose masks[b], which a trim ranks
	// by; nil for a re-seed and for a trimmed update.
	diffs [][]float64
	// streams holds the coded bands' codec streams (nil for a band
	// without changed tiles) until the frame packs them; bands before
	// next are coded. bytes is their uplink charge: the codec payloads
	// plus the shipped tile-mask metadata (framing overhead is a
	// transport concern and not billed to the link).
	streams [][]byte
	next    int
	bytes   int64
	// frame is the wire frame; nil until every band is coded.
	frame container.Codestream
	// decoded is the post-uplink reference, ref the store's Ref for it and
	// stored that Ref's content, the mirror's; all nil until admitted.
	decoded *raster.Image
	ref     sat.Ref
	stored  *raster.Image
	// spliceReencoded/spliceTotal are the tiled mirror splice's counts.
	spliceReencoded, spliceTotal int64
}

// memoKey selects the candidates for a shared update: the location and
// the ground reference (by identity — every promotion builds a new image,
// and reference images are never mutated).
type memoKey struct {
	loc int
	ref *raster.Image
}

// memoEntry is one distinct untrimmed update: the rest of its key — the
// mirror content it was coded against — and the coded result, nil when
// that content already matches the reference.
type memoEntry struct {
	base      *raster.Image        // the mirror's image; nil for a re-seed
	baseFrame container.Codestream // the mirror's stored frame, if compressed
	coded     *codedUpdate
}

// matches reports whether a mirror in state prev codes to e's update. The
// change masks and the decode derive from prev's exact pixels, and a tiled
// splice from its exact frame bytes, so both compare by bits.
func (e *memoEntry) matches(prev *refState) bool {
	if prev == nil || e.base == nil {
		return prev == nil && e.base == nil
	}
	return sameBits(prev.img, e.base) && bytes.Equal(prev.ref.Frame, e.baseFrame)
}

// sameBits reports whether two images hold bit-identical pixels. Unlike
// raster.Image.Equal, which compares values, it tells 0 from -0: both
// survive the decode's clamp and reach the mirror.
func sameBits(a, b *raster.Image) bool {
	if a == b {
		return true
	}
	if !a.SameShape(b) {
		return false
	}
	for band, p := range a.Pix {
		q := b.Pix[band]
		for i, v := range p {
			if math.Float32bits(v) != math.Float32bits(q[i]) {
				return false
			}
		}
	}
	return true
}

// sharedUpdate returns the untrimmed update of loc's reference best for a
// mirror in state prev: the tiles whose content changed (every tile for a
// re-seed), or nil when nothing changed. Every satellite's mirror is
// refreshed from the same ground reference, so on a day that promotes a
// reference, satellites whose mirrors hold the same content need the same
// update: the first one packed diffs it, and the rest of the day's
// satellites reuse the masks, their diffs and the bands coded so far —
// and, once admitted, its decode and stored Ref. A memo hit means a
// bit-identical mirror, so the recorded diffs are that mirror's too. The
// update is coded band by band, each band at most once per day: a
// satellite codes only the bands its meter reaches (codeWithin), and a
// later one with a larger meter continues from there. The key fixes
// best.img, so every satellite codes from the same image.
func (g *Ground) sharedUpdate(loc int, best, prev *refState, gLow raster.TileGrid) *codedUpdate {
	key := memoKey{loc: loc, ref: best.img}
	for _, e := range g.memo[key] {
		if e.matches(prev) {
			return e.coded
		}
	}
	perBand := make([]*raster.TileMask, len(g.bands))
	var diffs [][]float64
	if prev != nil {
		diffs = make([][]float64, len(g.bands))
	}
	totalTiles := 0
	for b := range g.bands {
		mask := raster.NewTileMask(gLow)
		if prev == nil {
			mask.SetAll()
		} else {
			diffs[b] = raster.TileMeanAbsDiff(best.img, prev.img, b, gLow)
			for t, d := range diffs[b] {
				mask.Set[t] = d > refDiffEps
			}
		}
		perBand[b] = mask
		totalTiles += mask.Count()
	}
	var c *codedUpdate
	if totalTiles > 0 {
		c = &codedUpdate{masks: perBand, diffs: diffs}
	}
	e := &memoEntry{coded: c}
	if prev != nil {
		e.base, e.baseFrame = prev.img, prev.ref.Frame
	}
	if g.memo == nil {
		g.memo = make(map[memoKey][]*memoEntry)
	}
	g.memo[key] = append(g.memo[key], e)
	return c
}

// admit completes c for a satellite whose budget accepted it: the
// post-uplink decode on top of the mirror state prev, the Ref the store
// keeps for it and that Ref's content. A shared update is completed by
// the first satellite to admit it; later ones reuse it.
func (g *Ground) admit(c *codedUpdate, prev, best *refState) error {
	if c.decoded != nil {
		return nil
	}
	decoded, err := g.decodeRefUpdate(c.frame, c.masks, prev, best)
	if err != nil {
		return err
	}
	// The store installs ref as is, so the mirror holds what it decodes:
	// the content Update returns with it.
	var held sat.Ref
	if prev != nil {
		held = prev.ref
	}
	ref, stored, st, err := g.storage.Update(held, decoded, c.masks)
	if err != nil {
		return fmt.Errorf("station: %w", err)
	}
	c.decoded, c.ref, c.stored = decoded, ref, stored
	c.spliceReencoded, c.spliceTotal = st.TilesReencoded, st.TilesTotal
	return nil
}

// PendingUplink counts, without consuming any budget or mutating state,
// the locations of locs that PackUplink would try to send to satellite sat
// right now, split into its three scheduling classes: re-seeds (no mirror —
// the satellite is flying blind), deltas (stale mirror a freshness update
// would advance) and demoted re-seeds (past the MaxRetransmits bound).
// Locations with no reference yet, or whose mirror is already at the
// ground's best reference day, are pending in no class. That matches
// PackUplink's skip conditions except for the residual tiles of a
// budget-trimmed update (see below). The constellation contact scheduler
// turns these counts into cross-satellite demand.
func (g *Ground) PendingUplink(sat int, locs []int) (reseeds, deltas, demoted int) {
	g.mirrorMu.Lock()
	defer g.mirrorMu.Unlock()
	mirror := g.mirrors[sat]
	retries := g.retries[sat]
	for _, loc := range locs {
		g.locMu[loc].Lock()
		best := g.bestRef[loc]
		g.locMu[loc].Unlock()
		if best == nil {
			continue
		}
		var m *refState
		if mirror != nil {
			m = mirror[loc]
		}
		switch {
		case m != nil:
			// Only a mirror older than the best reference counts as a
			// waiting delta. A mirror at the reference's day is usually
			// current, but not always: after a budget-trimmed update the
			// residual tiles still differ, and PackUplink sends them
			// whenever this satellite wins a window. Demand leaves those
			// residuals out.
			if m.day < best.day {
				deltas++
			}
		case g.maxRetransmits >= 0 && retries[loc] > g.maxRetransmits:
			demoted++
		default:
			reseeds++
		}
	}
	return reseeds, deltas, demoted
}

// trimUpdateToBudget reduces the untrimmed update c's masks to the
// most-changed (band, tile) units whose estimated cost fits remaining
// bytes, ranked by c's recorded diffs (a re-seed's units tie), and
// returns them as new masks: c is left untouched, since it may be
// shared. The tiles that do not make the cut remain different from the
// reference, so the content diff re-selects them on the following days
// until the mirror converges.
func (g *Ground) trimUpdateToBudget(c *codedUpdate, remaining int64) []*raster.TileMask {
	perBand := c.masks
	gLow := perBand[0].Grid
	out := make([]*raster.TileMask, len(perBand))
	for b := range out {
		out[b] = raster.NewTileMask(gLow)
	}
	// The diffs and the sort only choose the first keep units.
	keep := int(remaining / g.trimUnitBytes(gLow))
	if keep <= 0 {
		return out
	}
	type unit struct {
		band, tile int
		diff       float64
	}
	var units []unit
	for b, mask := range perBand {
		for t, set := range mask.Set {
			if !set {
				continue
			}
			d := 1.0
			if c.diffs != nil {
				d = c.diffs[b][t]
			}
			units = append(units, unit{band: b, tile: t, diff: d})
		}
	}
	sort.Slice(units, func(i, j int) bool { return units[i].diff > units[j].diff })
	for i := 0; i < keep && i < len(units); i++ {
		out[units[i].band].Set[units[i].tile] = true
	}
	return out
}

// trimUnitBytes is trimUpdateToBudget's cost estimate for one (band, tile)
// unit of a low-res grid: the γ-style budget the encoder will spend, plus
// a small share of stream overhead.
func (g *Ground) trimUnitBytes(gLow raster.TileGrid) int64 {
	return int64(g.storage.BPP*float64(gLow.Tile*gLow.Tile)/8) + 12
}

// codeWithin ROI-encodes the changed tiles of the low-res reference ref,
// band by band from c's first uncoded band, and reports whether every
// band is coded and packed into c's frame. It stops after the first band
// that takes c's charge past limit, a meter's Remaining: the charge only
// grows band by band, so the whole update could no longer pass that
// meter's TryConsume. A negative limit, an unlimited meter, codes every
// band. A band's encode error surfaces only when coding reaches that band.
func (g *Ground) codeWithin(c *codedUpdate, ref *raster.Image, limit int64) (bool, error) {
	if c.frame != nil {
		return true, nil
	}
	if c.streams == nil {
		c.streams = make([][]byte, len(c.masks))
	}
	for ; c.next < len(c.masks); c.next++ {
		if limit >= 0 && c.bytes > limit {
			return false, nil
		}
		mask := c.masks[c.next]
		if mask.Count() == 0 {
			continue
		}
		data, err := codec.EncodeROIBand(ref.Plane(c.next), mask, g.storage.BPP, g.storage.Codec)
		if err != nil {
			return false, fmt.Errorf("station: encoding reference band %d: %w", c.next, err)
		}
		c.streams[c.next] = data
		c.bytes += int64(len(data)) + codec.ROIMaskBytes(mask.Grid)
	}
	c.frame, c.streams = container.Pack(c.streams), nil
	return true, nil
}

// decodeRefUpdate reconstructs the reference image a satellite ends up with
// after applying the update on top of its current mirror, decoding the
// bands on the pool: the day-end barrier runs it on one goroutine. The
// result needs no clamp: the mirror is a clamped decode already, and the
// ROI decode clamps every tile it writes.
func (g *Ground) decodeRefUpdate(cs container.Codestream, masks []*raster.TileMask, current *refState, best *refState) (*raster.Image, error) {
	var base *raster.Image
	if current != nil {
		base = current.img.Clone()
	} else {
		base = raster.New(best.img.Width, best.img.Height, g.bands)
	}
	if err := codec.DecodeROIFrame(cs, masks, nil, base, g.storage.Codec.Parallelism); err != nil {
		return nil, fmt.Errorf("station: reference frame: %w", err)
	}
	return base, nil
}

// SeedBootstrap installs an initial archive and reference for loc (the
// operational history every deployed system would already have), primes
// every listed satellite mirror with it, free of uplink charge, and
// returns the Ref each listed satellite's store installs. The ground
// keeps its own copy of full. The listed mirrors and stores share one
// Ref, and a raw one shares the ground's own downsampled reference.
func (g *Ground) SeedBootstrap(loc, day int, full *raster.Image, sats []int) (sat.Ref, error) {
	low, err := full.Downsample(g.downsample)
	if err != nil {
		return sat.Ref{}, fmt.Errorf("station: bootstrap downsample: %w", err)
	}
	// The ground's own reference stays pristine; what each mirror holds
	// is what the satellite's store will reproduce: the content of the
	// Ref a store not holding loc yet gets.
	ref, stored, _, err := g.storage.Update(sat.Ref{}, low, nil)
	if err != nil {
		return sat.Ref{}, fmt.Errorf("station: bootstrap: %w", err)
	}
	g.locMu[loc].Lock()
	g.archive[loc] = full.Clone()
	g.bestRef[loc] = &refState{img: low, day: day}
	g.locMu[loc].Unlock()
	g.mirrorMu.Lock()
	defer g.mirrorMu.Unlock()
	for _, s := range sats {
		mirror := g.mirrors[s]
		if mirror == nil {
			mirror = make([]*refState, len(g.archive))
			g.mirrors[s] = mirror
		}
		mirror[loc] = &refState{img: stored, day: day, ref: ref}
	}
	return ref, nil
}

// InvalidateMirror drops the ground's belief that satellite sat still
// holds a reference for loc. Callers MUST invoke it whenever the on-board
// cache evicts loc — otherwise the next PackUplink would delta-encode tile
// updates against a reference the satellite no longer has. With the mirror
// slot nil, the next uplink cycle covering loc ships the full reference
// (re-seeding the evicted entry) instead of a delta.
func (g *Ground) InvalidateMirror(sat, loc int) {
	g.mirrorMu.Lock()
	defer g.mirrorMu.Unlock()
	if m := g.mirrors[sat]; m != nil && loc >= 0 && loc < len(m) {
		m[loc] = nil
	}
}

// AckDelivery records that satellite sat confirmed installing the last
// update for loc, clearing its consecutive-failure count. PackUplink
// committed the mirror optimistically at pack time, so an ACK needs no
// further state change.
func (g *Ground) AckDelivery(sat, loc int) {
	g.mirrorMu.Lock()
	defer g.mirrorMu.Unlock()
	if r := g.retries[sat]; r != nil {
		delete(r, loc)
	}
}

// NackDelivery records that the last update packed for (sat, loc) was
// not installed on board — lost, truncated, or rejected by the
// satellite's CRC gate. It atomically rolls the optimistic mirror commit
// back (the nil slot makes the next PackUplink re-send the FULL
// reference, which also covers the case where the satellite held no
// prior version) and bumps the consecutive-failure count that drives the
// retransmit class and its MaxRetransmits demotion.
func (g *Ground) NackDelivery(sat, loc int) {
	g.mirrorMu.Lock()
	defer g.mirrorMu.Unlock()
	if m := g.mirrors[sat]; m != nil && loc >= 0 && loc < len(m) {
		m[loc] = nil
	}
	r := g.retries[sat]
	if r == nil {
		r = make(map[int]int)
		g.retries[sat] = r
	}
	r[loc]++
}

// RetryCount returns how many consecutive deliveries to (sat, loc) have
// failed since the last success.
func (g *Ground) RetryCount(sat, loc int) int {
	g.mirrorMu.Lock()
	defer g.mirrorMu.Unlock()
	return g.retries[sat][loc]
}

// MirrorRefDay returns the day of the reference satellite sat holds for
// loc, or -1.
func (g *Ground) MirrorRefDay(sat, loc int) int {
	g.mirrorMu.Lock()
	defer g.mirrorMu.Unlock()
	if m := g.mirrors[sat]; m != nil && m[loc] != nil {
		return m[loc].day
	}
	return -1
}

// MirrorImage returns a copy of the reference image satellite sat's mirror
// holds for loc, or nil. Property tests use it to assert that applying a
// packed uplink on board reproduces the ground's mirror exactly.
func (g *Ground) MirrorImage(sat, loc int) *raster.Image {
	g.mirrorMu.Lock()
	defer g.mirrorMu.Unlock()
	if m := g.mirrors[sat]; m != nil && m[loc] != nil {
		return m[loc].img.Clone()
	}
	return nil
}

// SpliceTileStats reports how many codec tiles PackUplink's tiled mirror
// splices re-encoded, against the tiles whole-frame re-encodes would have
// touched. Zero until a tiled compressed mirror takes a delta update.
func (g *Ground) SpliceTileStats() (reencoded, total int64) {
	g.mirrorMu.Lock()
	defer g.mirrorMu.Unlock()
	return g.spliceReencoded, g.spliceTotal
}

// RefRawBytes returns the raw (uncompressed, 2 bytes/sample) size of one
// full-resolution reference set per location — the numerator of the
// uplink-compression experiment (Fig 17).
func (g *Ground) RefRawBytes() int64 {
	return int64(g.grid.ImageW) * int64(g.grid.ImageH) * int64(len(g.bands)) * 2
}
