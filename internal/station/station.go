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
	"earthplus/internal/eperr"
	"earthplus/internal/link"
	"earthplus/internal/raster"
	"earthplus/internal/sat"
)

// refState is a downsampled reference candidate or mirror. Mirrors of
// compressed on-board stores also retain the storage-codec frame the
// satellite holds (frame), so a tiled store's next delta update can be
// spliced per-tile into it instead of re-encoding the whole reference.
//
// Ownership: img and frame are immutable values, shared freely — one
// bootstrap seed or one coded update backs the mirrors and the on-board
// stores of every satellite that holds that content, and a ground
// reference may back mirrors too. Neither side ever mutates a reference
// image (sat.RefCache splices into a new one), so code that needs
// different content builds a new image. Only the struct itself (its day)
// is per-satellite state, so a refState is never shared between two
// mirror slots.
type refState struct {
	img   *raster.Image
	day   int
	frame container.Codestream
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
	codecOpts  codec.Options
	// refBPP is the bits-per-pixel spent on uploaded reference tiles.
	refBPP float64
	// maxRefCloud is the coverage bound for reference candidacy (<1%).
	maxRefCloud float64
	// compressRefs makes every mirror model a compressed on-board store:
	// reference content passes the storage codec before it is mirrored
	// (see Config.CompressRefs).
	compressRefs bool

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
	CodecOpts  codec.Options
	RefBPP     float64
	// MaxRefCloud is the maximum accurate-detected coverage for an image
	// to become a reference (the paper uses <1%).
	MaxRefCloud float64
	// CompressRefs makes the ground model satellites that hold their
	// references COMPRESSED (sat.CacheConfig.Compress): every reference
	// entering a mirror — the bootstrap seed, each delta-applied update —
	// first passes the storage codec (sat.EncodeStoredRef at RefBPP with
	// these codec options, the exact transform the on-board store
	// applies), and PackUplink ships the resulting frame alongside the
	// update so the store installs it without a raw-expand or re-encode.
	// The mirror then stays byte-equal to what the satellite's store
	// decodes, which is the invariant delta uplinks are encoded against.
	// Off (the default) preserves the raw-store behavior bit for bit.
	CompressRefs bool
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
	if cfg.RefBPP <= 0 {
		return nil, fmt.Errorf("station: RefBPP must be positive")
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
		codecOpts:      cfg.CodecOpts,
		refBPP:         cfg.RefBPP,
		maxRefCloud:    cfg.MaxRefCloud,
		compressRefs:   cfg.CompressRefs,
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
	streams, err := cs.Split()
	if err != nil {
		return fmt.Errorf("station: loc %d download frame: %w", loc, err)
	}
	if len(streams) != len(perBandROI) {
		return eperr.New(eperr.BadCodestream, "station",
			"download frame carries %d bands for %d ROI masks", len(streams), len(perBandROI))
	}
	g.locMu[loc].Lock()
	defer g.locMu[loc].Unlock()
	if g.archive[loc] == nil {
		g.archive[loc] = raster.New(g.grid.ImageW, g.grid.ImageH, g.bands)
	}
	var scratch []float32 // allocated only when tiles must be rejected
	for b, data := range streams {
		if data == nil || perBandROI[b] == nil {
			continue
		}
		dst := g.archive[loc].Plane(b)
		if reject == nil || reject.Count() == 0 {
			if err := codec.DecodeROIPlaneInto(dst, perBandROI[b], data, 0); err != nil {
				return fmt.Errorf("station: decoding loc %d band %d: %w", loc, b, err)
			}
			continue
		}
		if scratch == nil {
			scratch = make([]float32, g.grid.ImageW*g.grid.ImageH)
		}
		copy(scratch, dst)
		if err := codec.DecodeROIPlaneInto(scratch, perBandROI[b], data, 0); err != nil {
			return fmt.Errorf("station: decoding loc %d band %d: %w", loc, b, err)
		}
		for t, set := range perBandROI[b].Set {
			if !set || reject.Set[t] {
				continue
			}
			x0, y0, x1, y1 := g.grid.Bounds(t)
			for y := y0; y < y1; y++ {
				copy(dst[y*g.grid.ImageW+x0:y*g.grid.ImageW+x1], scratch[y*g.grid.ImageW+x0:y*g.grid.ImageW+x1])
			}
		}
	}
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
// update, so Frame, StoreFrame and PerBand may be shared with other
// satellites' updates and must not be mutated.
type RefUpdate struct {
	Loc int
	// Day is the reference content's capture day.
	Day int
	// Decoded is the post-codec reference image the satellite should
	// install in its cache (the satellite sees exactly what survived the
	// uplink encoding, not the pristine ground copy). Like every reference
	// image it is immutable and shared: without CompressRefs a raw store
	// keeps it (sat.RefCache.Put) while the ground's mirror and other
	// satellites' updates hold the same image. With CompressRefs it is the
	// PRE-storage-codec content: the store's entry is StoreFrame, whose
	// decode the mirror tracks, and the store keeps no pixels of Decoded.
	Decoded *raster.Image
	// StoreFrame is the storage-codec frame of the full updated
	// reference, set only under CompressRefs: a compressed on-board
	// store installs it directly (sat.RefCache.PutFrame) — no raw
	// expansion, no on-board re-encode, and byte-exact agreement with
	// the ground's mirror.
	StoreFrame container.Codestream
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
// Within one day, an untrimmed update is coded once and shared by every
// satellite that needs it (see sharedUpdate); a budget-trimmed update
// depends on the satellite's remaining meter and is coded for it alone.
// Callers packing a whole fleet call EndUplinkDay once all satellites of
// the day are packed.
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
		c, err := g.sharedUpdate(loc, best, mirror[loc], gLow)
		if err != nil {
			return nil, err
		}
		if c == nil {
			// Content identical; just advance the mirror's age for free.
			mirror[loc].day = best.day
			continue
		}
		if !budget.TryConsume(c.bytes) {
			// The full update does not fit. Ship the most-changed tiles
			// that do — the paper skips reference data under uplink
			// shortage (§5); skipping at tile granularity avoids the
			// deadlock where a whole-image update never fits a small
			// daily budget and the reference ages forever.
			perBand := g.trimUpdateToBudget(best, mirror[loc], c.masks, budget.Remaining())
			totalTiles := 0
			for _, m := range perBand {
				totalTiles += m.Count()
			}
			if totalTiles == 0 {
				continue
			}
			if c, err = g.encodeRefUpdate(best.img, perBand); err != nil {
				return nil, err
			}
			if !budget.TryConsume(c.bytes) {
				continue // not even the trimmed update fits today
			}
		}
		if err := g.admit(c, mirror[loc], best); err != nil {
			return nil, err
		}
		g.spliceReencoded += c.spliceReencoded
		g.spliceTotal += c.spliceTotal
		u := RefUpdate{
			Loc: loc, Day: best.day, Decoded: c.decoded, StoreFrame: c.storeFrame,
			PerBand: c.masks, Bytes: c.bytes, Frame: c.frame,
			Retransmit: retries[loc] > 0,
		}
		if g.compressRefs {
			mirror[loc] = &refState{img: c.stored, day: best.day, frame: c.storeFrame}
		} else {
			mirror[loc] = &refState{img: c.decoded, day: best.day}
		}
		updates = append(updates, u)
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

// codedUpdate is one reference update as the ground codes it: the wire
// frame and its uplink charge, then — once a satellite's budget admits the
// update — what that satellite ends up holding. Every field is immutable
// once set, so one codedUpdate may back several satellites' RefUpdates.
type codedUpdate struct {
	frame container.Codestream
	masks []*raster.TileMask
	bytes int64
	// decoded is the post-uplink reference; nil until admitted.
	decoded *raster.Image
	// storeFrame and stored (its decode) are set under CompressRefs: the
	// storage-codec frame the store installs, and the mirror's content.
	storeFrame container.Codestream
	stored     *raster.Image
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
	baseFrame container.Codestream // the mirror's stored frame (CompressRefs)
	coded     *codedUpdate
}

// matches reports whether a mirror in state prev codes to e's update. The
// change masks and the decode derive from prev's exact pixels, and a tiled
// splice from its exact frame bytes, so both compare by bits.
func (e *memoEntry) matches(prev *refState) bool {
	if prev == nil || e.base == nil {
		return prev == nil && e.base == nil
	}
	return sameBits(prev.img, e.base) && bytes.Equal(prev.frame, e.baseFrame)
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
// re-seed) and their encoding, or nil when nothing changed. Every
// satellite's mirror is refreshed from the same ground reference, so on
// a day that promotes a reference, satellites whose mirrors hold the same
// content need the same update: the first one packed diffs and encodes
// it, and the rest of the day's satellites reuse the masks and frame —
// and, once admitted, its decode and storage frame — instead of coding
// it again.
func (g *Ground) sharedUpdate(loc int, best, prev *refState, gLow raster.TileGrid) (*codedUpdate, error) {
	key := memoKey{loc: loc, ref: best.img}
	for _, e := range g.memo[key] {
		if e.matches(prev) {
			return e.coded, nil
		}
	}
	perBand := make([]*raster.TileMask, len(g.bands))
	totalTiles := 0
	for b := range g.bands {
		mask := raster.NewTileMask(gLow)
		if prev == nil {
			mask.SetAll()
		} else {
			diffs := raster.TileMeanAbsDiff(best.img, prev.img, b, gLow)
			for t, d := range diffs {
				mask.Set[t] = d > refDiffEps
			}
		}
		perBand[b] = mask
		totalTiles += mask.Count()
	}
	var c *codedUpdate
	if totalTiles > 0 {
		var err error
		if c, err = g.encodeRefUpdate(best.img, perBand); err != nil {
			return nil, err
		}
	}
	e := &memoEntry{coded: c}
	if prev != nil {
		e.base, e.baseFrame = prev.img, prev.frame
	}
	if g.memo == nil {
		g.memo = make(map[memoKey][]*memoEntry)
	}
	g.memo[key] = append(g.memo[key], e)
	return c, nil
}

// admit completes c for a satellite whose budget accepted it: the
// post-uplink decode on top of the mirror state prev and, under
// CompressRefs, the storage frame and its decode. A shared update is
// completed by the first satellite to admit it; later ones reuse it.
func (g *Ground) admit(c *codedUpdate, prev, best *refState) error {
	if c.decoded != nil {
		return nil
	}
	decoded, err := g.decodeRefUpdate(c.frame, c.masks, prev, best)
	if err != nil {
		return err
	}
	if g.compressRefs {
		// The satellite stores the updated reference COMPRESSED: run the
		// storage codec over the full delta-applied content and mirror
		// its decode — that, not `decoded`, is what the store will
		// reproduce on the next visit. The frame rides along so the store
		// installs it without re-encoding. A TILED mirror with a retained
		// frame splices instead: only the codec tiles a changed mask tile
		// touches are re-encoded (the same sat.SpliceStoredRef transform
		// the on-board store applies), so untouched tiles keep their exact
		// payload bytes and skip a storage-codec generation.
		if prev != nil && prev.frame != nil && prev.frame.Tiled() {
			var st sat.SpliceStats
			if c.storeFrame, c.stored, st, err = g.spliceRef(prev.frame, decoded, c.masks); err != nil {
				return err
			}
			c.spliceReencoded, c.spliceTotal = st.TilesReencoded, st.TilesTotal
		} else if c.storeFrame, c.stored, err = g.storeRef(decoded); err != nil {
			return err
		}
	}
	c.decoded = decoded
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

// storeRef runs the on-board storage codec over a reference — the exact
// transform a compressed sat.RefCache applies — returning the frame and
// its decode (the content the satellite will actually hold).
func (g *Ground) storeRef(im *raster.Image) (container.Codestream, *raster.Image, error) {
	frame, err := sat.EncodeStoredRef(im, g.refBPP, g.codecOpts)
	if err != nil {
		return nil, nil, fmt.Errorf("station: %w", err)
	}
	stored, err := sat.DecodeStoredRef(frame, im.Width, im.Height, im.Bands)
	if err != nil {
		return nil, nil, fmt.Errorf("station: %w", err)
	}
	return frame, stored, nil
}

// spliceRef applies a delta update to a tiled mirror frame per-tile — the
// exact sat.SpliceStoredRef transform a tiled on-board store applies —
// returning the spliced frame, its decode (the content the satellite will
// actually hold) and the splice's tile counts.
func (g *Ground) spliceRef(prev container.Codestream, decoded *raster.Image, masks []*raster.TileMask) (container.Codestream, *raster.Image, sat.SpliceStats, error) {
	frame, st, err := sat.SpliceStoredRef(prev, decoded.Width, decoded.Height, g.bands, decoded, masks, g.refBPP, g.codecOpts)
	if err != nil {
		return nil, nil, st, fmt.Errorf("station: %w", err)
	}
	stored, err := sat.DecodeStoredRef(frame, decoded.Width, decoded.Height, decoded.Bands)
	if err != nil {
		return nil, nil, st, fmt.Errorf("station: %w", err)
	}
	return frame, stored, st, nil
}

// trimUpdateToBudget reduces per-band update masks to the most-changed
// (band, tile) units whose estimated cost fits remaining bytes, returned
// as new masks: perBand is left untouched, since a shared update holds
// it. The tiles that do not make the cut remain different from the
// reference, so the content diff re-selects them on the following days
// until the mirror converges.
func (g *Ground) trimUpdateToBudget(best, mirror *refState, perBand []*raster.TileMask, remaining int64) []*raster.TileMask {
	gLow := perBand[0].Grid
	out := make([]*raster.TileMask, len(perBand))
	for b := range out {
		out[b] = raster.NewTileMask(gLow)
	}
	if remaining <= 0 {
		return out
	}
	type unit struct {
		band, tile int
		diff       float64
	}
	var units []unit
	for b, mask := range perBand {
		if mask.Count() == 0 {
			continue
		}
		var diffs []float64
		if mirror != nil {
			diffs = raster.TileMeanAbsDiff(best.img, mirror.img, b, gLow)
		}
		for t, set := range mask.Set {
			if !set {
				continue
			}
			d := 1.0
			if diffs != nil {
				d = diffs[t]
			}
			units = append(units, unit{band: b, tile: t, diff: d})
		}
	}
	sort.Slice(units, func(i, j int) bool { return units[i].diff > units[j].diff })
	// Cost estimate per unit: the γ-style budget the encoder will spend,
	// plus a small share of stream overhead.
	costPerUnit := int64(g.refBPP*float64(gLow.Tile*gLow.Tile)/8) + 12
	keep := int(remaining / costPerUnit)
	for i := 0; i < keep && i < len(units); i++ {
		out[units[i].band].Set[units[i].tile] = true
	}
	return out
}

// encodeRefUpdate ROI-encodes the changed tiles of the low-res reference
// into one container frame. The returned byte count is the uplink charge:
// the per-band codec payloads plus the shipped tile-mask metadata
// (framing overhead is a transport concern and not billed to the link).
func (g *Ground) encodeRefUpdate(ref *raster.Image, perBand []*raster.TileMask) (*codedUpdate, error) {
	streams := make([][]byte, len(g.bands))
	var total int64
	for b, mask := range perBand {
		if mask.Count() == 0 {
			continue
		}
		opts := g.codecOpts
		roiPixels := mask.Count() * mask.Grid.Tile * mask.Grid.Tile
		opts.BudgetBytes = int(g.refBPP * float64(roiPixels) / 8)
		if opts.BudgetBytes < codec.MinBudgetBytes {
			opts.BudgetBytes = codec.MinBudgetBytes
		}
		data, err := codec.EncodeROIPlane(ref.Plane(b), mask, opts)
		if err != nil {
			return nil, fmt.Errorf("station: encoding reference band %d: %w", b, err)
		}
		streams[b] = data
		total += int64(len(data)) + codec.ROIMaskBytes(mask.Grid)
	}
	return &codedUpdate{frame: container.Pack(streams), masks: perBand, bytes: total}, nil
}

// decodeRefUpdate reconstructs the reference image a satellite ends up with
// after applying the update on top of its current mirror.
func (g *Ground) decodeRefUpdate(cs container.Codestream, masks []*raster.TileMask, current *refState, best *refState) (*raster.Image, error) {
	streams, err := cs.Split()
	if err != nil {
		return nil, fmt.Errorf("station: reference frame: %w", err)
	}
	var base *raster.Image
	if current != nil {
		base = current.img.Clone()
	} else {
		base = raster.New(best.img.Width, best.img.Height, g.bands)
	}
	for b, data := range streams {
		if data == nil {
			continue
		}
		if err := codec.DecodeROIPlaneInto(base.Plane(b), masks[b], data, 0); err != nil {
			return nil, fmt.Errorf("station: decoding reference band %d: %w", b, err)
		}
	}
	base.Clamp()
	return base, nil
}

// SeedBootstrap installs an initial archive and reference for loc (the
// operational history every deployed system would already have) and primes
// every listed satellite mirror with it, free of uplink charge. The ground
// keeps its own copy of full; the listed mirrors share one seed image (and,
// under CompressRefs, one seed frame). Reference images are immutable, so
// callers seeding on-board caches may share one seed image among them too.
func (g *Ground) SeedBootstrap(loc, day int, full *raster.Image, sats []int) error {
	low, err := full.Downsample(g.downsample)
	if err != nil {
		return fmt.Errorf("station: bootstrap downsample: %w", err)
	}
	// The ground's own reference stays pristine; what each MIRROR holds
	// is what the satellite's store will reproduce — for a compressed
	// store, the seed after one pass through the storage codec (the
	// on-board cache applies the identical transform when the system
	// bootstraps it with the same pre-codec seed).
	mirrorImg := low
	var mirrorFrame container.Codestream
	if g.compressRefs {
		if mirrorFrame, mirrorImg, err = g.storeRef(low); err != nil {
			return fmt.Errorf("station: bootstrap: %w", err)
		}
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
		mirror[loc] = &refState{img: mirrorImg, day: day, frame: mirrorFrame}
	}
	return nil
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
