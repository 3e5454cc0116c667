// Package sat implements the on-board half of the reproduction: the
// reference cache a satellite keeps for every location it will visit, and
// the capture-processing pipeline of §5 — cheap cloud removal, image
// dropping, illumination alignment, downsampled change detection, and
// region-of-interest encoding of the changed tiles.
package sat

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"earthplus/internal/codec"
	"earthplus/internal/container"
	"earthplus/internal/orbit"
	"earthplus/internal/raster"
)

// LowResRef is one cached downsampled reference image.
type LowResRef struct {
	// Image is the reference content at the pipeline's detection
	// resolution (already cloud-free by ground-side construction). It may
	// be shared with the store and must not be mutated (see RefCache).
	Image *raster.Image
	// Day is the capture day of the reference content (its freshness).
	Day int
}

// Policy names a reference-store eviction policy.
type Policy string

const (
	// PolicyLRU evicts the least-recently-visited location first (ties
	// break toward the smaller location id, so eviction is deterministic).
	PolicyLRU Policy = "lru"
	// PolicySchedule evicts the location whose next planned visit is
	// farthest in the future — the reference the satellite can best afford
	// to lose, since the ground has the most days to re-seed it. Requires
	// CacheConfig.NextVisit (the orbit schedule core precomputes its visit
	// plans from).
	PolicySchedule Policy = "schedule"
)

// Policies lists the known eviction policy names.
func Policies() []string { return []string{string(PolicyLRU), string(PolicySchedule)} }

// RawBitsPerSample is the raw on-board storage cost of one reference band
// sample: the 16-bit quantisation the codec's lossless mode (and hence the
// ground mirror) assumes. core.RefStoreBitsPerSample and the SatRoI
// baseline's full-resolution store both alias this one constant, so the
// accounting rate cannot drift between layers.
const RawBitsPerSample = 16

// CacheConfig bounds a reference cache to a satellite's finite on-board
// store. The zero value means unbounded (the pre-storage-model behavior).
type CacheConfig struct {
	// BudgetBytes caps the cache footprint; <= 0 means unlimited.
	BudgetBytes int64
	// BitsPerSample is the a-priori storage cost of one band sample at
	// detection resolution (0 = RawBitsPerSample). With Compress off it is
	// the exact accounting rate; with Compress on, entries are charged
	// their real encoded byte count instead and BitsPerSample only feeds
	// estimates made before any entry exists (working-set math, sweep
	// budget fractions) — see EffectiveBitsPerSample.
	BitsPerSample int
	// Policy selects the eviction order ("" = lru).
	Policy Policy
	// NextVisit predicts the first day strictly after afterDay on which
	// the satellite revisits loc. Required by PolicySchedule.
	NextVisit func(loc, afterDay int) int
	// Compress stores each reference as its encoded container frame at
	// StoreBPP bits per pixel — the uplink's reference rate, the
	// representation the updates arrive in — instead of raw planes: the
	// footprint charged against BudgetBytes is the actual encoded byte
	// count (RawBitsPerSample/StoreBPP smaller, so the same budget holds
	// ~2-5x more locations), and every Visit decodes the frame.
	// Put/ApplyTileUpdate take the PRE-storage-codec image and apply the
	// codec themselves (EncodeStoredRef); the ground's mirror must model
	// the same transform (station.Config.CompressRefs) or delta uplinks
	// would be encoded against content the satellite never held.
	Compress bool
	// StoreBPP is the storage codec rate of a compressed cache, in bits
	// per pixel per band. Required (> 0) when Compress is set; Earth+
	// wires its uplink RefBPP here so on-board storage and uplink share
	// one representation.
	StoreBPP float64
	// Codec configures the storage codec of a compressed cache. It must
	// match the ground's reference-update codec options so both sides
	// produce byte-identical frames.
	Codec codec.Options
}

// EffectiveBitsPerSample resolves the per-sample rate a-priori estimates
// (reference working sets, sweep budget fractions) should assume for this
// configuration. It is the resolved BitsPerSample: with Compress on the
// real footprint is measured per entry at install time and is usually
// several times smaller, so callers needing the true compressed rate must
// measure it (FootprintBytes / stored samples) rather than predict it.
func (c CacheConfig) EffectiveBitsPerSample() int { return c.withDefaults().BitsPerSample }

// ResolveBudget maps the stack's three-valued storage knob onto a cache
// budget, in ONE place for every constructor and registry shim: zero
// means the paper's Table 1 default (orbit.DovesSpec().StorageBytes,
// 360 GB), negative means explicitly unlimited (a zero CacheConfig
// budget), positive passes through.
func ResolveBudget(storageBytes int64) int64 {
	switch {
	case storageBytes == 0:
		return orbit.DovesSpec().StorageBytes
	case storageBytes < 0:
		return 0
	default:
		return storageBytes
	}
}

// withDefaults resolves the zero values.
func (c CacheConfig) withDefaults() CacheConfig {
	if c.BitsPerSample <= 0 {
		c.BitsPerSample = RawBitsPerSample
	}
	if c.Policy == "" {
		c.Policy = PolicyLRU
	}
	return c
}

// validate reports configuration errors.
func (c CacheConfig) validate() error {
	switch c.Policy {
	case PolicyLRU:
	case PolicySchedule:
		if c.NextVisit == nil {
			return fmt.Errorf("sat: eviction policy %q needs a NextVisit schedule", c.Policy)
		}
	default:
		return fmt.Errorf("sat: unknown eviction policy %q (known: %v)", c.Policy, Policies())
	}
	if c.Compress && c.StoreBPP <= 0 {
		return fmt.Errorf("sat: compressed reference store needs a positive StoreBPP rate")
	}
	return nil
}

// EncodeStoredRef encodes every band of a reference image at bpp bits per
// pixel into one container frame: the representation a compressed
// on-board store holds. It is ONE function shared by sat.RefCache and the
// ground's mirror simulation (station.Config.CompressRefs), so both sides
// produce byte-identical frames from the same input — the coherence delta
// uplinks depend on.
func EncodeStoredRef(im *raster.Image, bpp float64, opts codec.Options) (container.Codestream, error) {
	streams := make([][]byte, im.NumBands())
	errs := make([]error, im.NumBands())
	codec.ParallelBands(opts.Parallelism, im.NumBands(), func(b int) {
		bandOpts := opts
		bandOpts.BudgetBytes = int(bpp * float64(im.Width*im.Height) / 8)
		if bandOpts.BudgetBytes < codec.MinBudgetBytes {
			bandOpts.BudgetBytes = codec.MinBudgetBytes
		}
		data, err := codec.EncodePlane(im.Plane(b), im.Width, im.Height, bandOpts)
		if err != nil {
			errs[b] = fmt.Errorf("sat: encoding stored reference band %d: %w", b, err)
			return
		}
		streams[b] = data
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return container.Pack(streams), nil
}

// SpliceStats reports what a per-tile reference splice touched: how many
// codec tiles were re-encoded versus carried over verbatim. The counters
// are the measured savings of the tiled profile (a monolithic splice
// decodes and re-encodes every tile, i.e. Reencoded == Total).
type SpliceStats struct {
	TilesReencoded int64
	TilesTotal     int64
}

// SpliceStoredRef applies a tile update to a stored TILED reference frame
// by re-encoding only the codec tiles that intersect a changed mask tile:
// the base content of those tiles is region-decoded from the old frame
// (only the touched tiles are decoded), the update's masked tiles are
// overlaid, and every untouched tile's payload bytes are reused verbatim.
// Like EncodeStoredRef it is ONE function shared by sat.RefCache and the
// ground's mirror simulation, so both sides derive byte-identical new
// frames from (old frame, update, masks) — the coherence invariant of the
// delta uplink, now at tile granularity. bpp and opts must be the store's
// rate parameters (CacheConfig.StoreBPP / CacheConfig.Codec).
func SpliceStoredRef(frame container.Codestream, w, h int, bands []raster.BandInfo,
	update *raster.Image, perBand []*raster.TileMask, bpp float64, opts codec.Options) (container.Codestream, SpliceStats, error) {
	var stats SpliceStats
	streams, err := frame.SplitNoCRC()
	if err != nil {
		return nil, stats, fmt.Errorf("sat: splicing stored reference: %w", err)
	}
	if len(streams) != len(bands) {
		return nil, stats, fmt.Errorf("sat: stored reference frame carries %d bands, want %d", len(streams), len(bands))
	}
	budget := int(bpp * float64(w*h) / 8)
	if budget < codec.MinBudgetBytes {
		budget = codec.MinBudgetBytes
	}
	bandOpts := opts
	bandOpts.BudgetBytes = budget
	out := make([][]byte, len(streams))
	errs := make([]error, len(streams))
	var mu sync.Mutex
	codec.ParallelBands(opts.Parallelism, len(streams), func(b int) {
		s := streams[b]
		mask := perBand[b]
		if s == nil || mask == nil || mask.Count() == 0 {
			out[b] = s
			return
		}
		if !codec.IsTiled(s) {
			errs[b] = fmt.Errorf("sat: band %d of spliced frame is not tiled", b)
			return
		}
		info, err := codec.Parse(s)
		if err != nil {
			errs[b] = fmt.Errorf("sat: band %d: %w", b, err)
			return
		}
		if info.W != w || info.H != h {
			errs[b] = fmt.Errorf("sat: band %d is %dx%d, want %dx%d", b, info.W, info.H, w, h)
			return
		}
		// Project the changed mask onto the codec grid and region-decode
		// ONLY the touched codec tiles into the base plane; untouched
		// pixels are never read downstream.
		cols := raster.TileSpan(w, info.TileSize)
		rows := raster.TileSpan(h, info.TileSize)
		touched := make([]bool, cols*rows)
		g := mask.Grid
		for t, set := range mask.Set {
			if !set {
				continue
			}
			mx0, my0, mx1, my1 := g.Bounds(t)
			c0, r0, c1, r1 := raster.TileRange(w, h, info.TileSize, mx0, my0, mx1, my1)
			for r := r0; r < r1; r++ {
				for c := c0; c < c1; c++ {
					touched[r*cols+c] = true
				}
			}
		}
		base := make([]float32, w*h)
		var decoded int64
		for t, hit := range touched {
			if !hit {
				continue
			}
			x0, y0, x1, y1 := raster.ClampedTileBounds(w, h, info.TileSize, t)
			reg, cw, _, err := codec.DecodeRegion(s, x0, y0, x1-x0, y1-y0)
			if err != nil {
				errs[b] = fmt.Errorf("sat: band %d tile %d: %w", b, t, err)
				return
			}
			for dy := 0; dy < y1-y0; dy++ {
				row := reg[dy*cw : dy*cw+cw]
				dst := base[(y0+dy)*w+x0 : (y0+dy)*w+x1]
				for i, v := range row {
					// The splice base is the decoded reference, which is
					// clamped to [0,1] exactly as DecodeStoredRef clamps.
					if v < 0 {
						v = 0
					} else if v > 1 {
						v = 1
					}
					dst[i] = v
				}
			}
			decoded++
		}
		// Overlay the update's changed tiles (original pixel values, as
		// the raw splice path copies them).
		for t, set := range mask.Set {
			if !set {
				continue
			}
			mx0, my0, mx1, my1 := g.Bounds(t)
			up := update.Plane(b)
			for y := my0; y < my1; y++ {
				copy(base[y*w+mx0:y*w+mx1], up[y*w+mx0:y*w+mx1])
			}
		}
		ns, err := codec.TiledSplicePlane(s, base, mask, bandOpts)
		if err != nil {
			errs[b] = fmt.Errorf("sat: band %d: %w", b, err)
			return
		}
		out[b] = ns
		mu.Lock()
		stats.TilesReencoded += decoded
		stats.TilesTotal += int64(info.NTiles)
		mu.Unlock()
	})
	for _, err := range errs {
		if err != nil {
			return nil, stats, err
		}
	}
	return container.Pack(out), stats, nil
}

// DecodeStoredRef reverses EncodeStoredRef into a fresh image of the
// given geometry.
func DecodeStoredRef(cs container.Codestream, w, h int, bands []raster.BandInfo) (*raster.Image, error) {
	streams, err := cs.Split()
	if err != nil {
		return nil, fmt.Errorf("sat: stored reference frame: %w", err)
	}
	if len(streams) != len(bands) {
		return nil, fmt.Errorf("sat: stored reference frame carries %d bands, want %d", len(streams), len(bands))
	}
	im := raster.New(w, h, bands)
	for b, data := range streams {
		plane, pw, ph, err := codec.DecodePlane(data, 0)
		if err != nil {
			return nil, fmt.Errorf("sat: decoding stored reference band %d: %w", b, err)
		}
		if pw != w || ph != h {
			return nil, fmt.Errorf("sat: stored reference band %d decodes to %dx%d, want %dx%d", b, pw, ph, w, h)
		}
		copy(im.Plane(b), plane)
	}
	im.Clamp()
	return im, nil
}

// ValidateFrame is the satellite's integrity gate for a received
// container frame: the structural parse plus the CRC-32C trailer check,
// without decoding any payload. A lossy uplink's RefUpdate (and, under
// RefCompression, its StoreFrame) must pass it before ANY splice into
// on-board state — a corrupted or truncated frame is rejected whole and
// the cache keeps its stale-but-coherent reference.
func ValidateFrame(cs container.Codestream) error {
	if _, err := cs.Split(); err != nil {
		return fmt.Errorf("sat: frame rejected: %w", err)
	}
	return nil
}

// entry is one stored reference: the image itself (img) in a raw store,
// or its storage-codec frame (frame) in a compressed one, plus the
// geometry to decode it. Every field but lastVisit is fixed at install —
// an update installs a new entry — so a Visit may read an entry after
// releasing the cache lock.
type entry struct {
	img   *raster.Image
	frame container.Codestream
	w, h  int
	bands []raster.BandInfo
	// day is the content's capture day; lastVisit the day of the most
	// recent visit or install, the recency LRU eviction reads.
	day, lastVisit int
	// bytes is the entry's accounted footprint.
	bytes int64
}

// RefCache holds a satellite's on-board reference images, keyed by
// location, bounded by the satellite's storage budget. Earth+ caches
// references on board so that uplink updates only need to carry changed
// reference tiles (§4.3); because the store is finite, an insert may evict
// other locations, and a later Visit of an evicted location MISSES — the
// pipeline then falls back to reference-free encoding until the ground
// re-seeds the reference over the uplink.
//
// With CacheConfig.Compress the store holds each reference as its encoded
// container frame at the uplink's reference rate (StoreBPP) — the
// footprint charged against the budget is the actual encoded byte count,
// so the same budget holds roughly RawBitsPerSample/StoreBPP more
// locations — and every Visit decodes the frame. An entry's content is
// ALWAYS decode(frame): installs run the storage codec (or accept a
// pre-encoded frame via PutFrame), and the ground simulates the same
// transform on its mirror, so what the satellite detects changes against
// is byte-equal to what the ground believes it holds.
//
// Ownership: a stored image is never mutated. A raw store keeps the image
// Put hands it and gives the same image to every Visit, and
// ApplyTileUpdate splices into a new image. One image may therefore back
// several satellites' stores and the ground's mirrors at once, and no
// caller may write to an image it passed in or got back.
//
// Determinism contract: eviction decisions depend only on the visit
// schedule (day numbers), never on wall-clock or goroutine order. Visit
// records recency per location as the capture day — concurrent visits to
// distinct locations write distinct entries, so the sharded engine reaches
// the same cache state at any worker count — and every mutation that can
// evict (Put, ApplyTileUpdate) happens on the engine's serial phases
// (bootstrap, day-end barrier).
//
// The cache is safe for concurrent use on DISTINCT locations: the sharded
// simulation engine looks up references for many locations at once while a
// satellite's cache is shared across its day's visits, and a compressed
// Visit decodes outside the lock. Same-location ordering is the caller's
// responsibility (the engine serialises each location's visit sequence).
type RefCache struct {
	mu      sync.RWMutex
	cfg     CacheConfig
	entries map[int]*entry
	// used is the accounted footprint of every entry, in bytes.
	used int64
	// lastDay is the latest day observed via Visit/Put/ApplyTileUpdate;
	// PolicySchedule predicts next visits relative to it.
	lastDay int
	// evictions and misses count capacity evictions and Visit misses.
	evictions, misses int64
	// decodes counts frame decodes and decodeNanos the wall-clock spent
	// in them, so the decode-on-visit cost of a compressed store is
	// measurable, not just countable. Decodes run outside mu.
	decodes, decodeNanos atomic.Int64
}

// NewRefCache returns an empty, unbounded cache.
func NewRefCache() *RefCache {
	c, _ := NewBoundedRefCache(CacheConfig{}) // zero config always validates
	return c
}

// NewBoundedRefCache returns an empty cache honouring cfg's storage budget
// and eviction policy.
func NewBoundedRefCache(cfg CacheConfig) (*RefCache, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	return &RefCache{cfg: cfg, entries: make(map[int]*entry)}, nil
}

// encodeFrame runs the storage codec over a reference image. The cache
// produced the image itself, so an encode failure is a programming error,
// not a runtime condition.
func (c *RefCache) encodeFrame(im *raster.Image) container.Codestream {
	frame, err := EncodeStoredRef(im, c.cfg.StoreBPP, c.cfg.Codec)
	if err != nil {
		panic(fmt.Sprintf("sat: %v", err))
	}
	return frame
}

// decode decodes a compressed entry's frame into a fresh image.
func (c *RefCache) decode(loc int, e *entry) *raster.Image {
	t0 := time.Now() //lint:deterministic wall time feeds DecodeWall, which only the repo benchmark and simbench read
	im, err := DecodeStoredRef(e.frame, e.w, e.h, e.bands)
	if err != nil {
		panic(fmt.Sprintf("sat: loc %d: %v", loc, err))
	}
	c.decodeNanos.Add(time.Since(t0).Nanoseconds()) //lint:deterministic wall time feeds DecodeWall, which only the repo benchmark and simbench read
	c.decodes.Add(1)
	return im
}

// load returns e's reference: a raw entry's own image, or a compressed
// entry's frame decoded afresh.
func (c *RefCache) load(loc int, e *entry) *LowResRef {
	if e.frame == nil {
		return &LowResRef{Image: e.img, Day: e.day}
	}
	return &LowResRef{Image: c.decode(loc, e), Day: e.day}
}

// footprint is the size of w×h×bands samples at bits per sample, in exact
// integer arithmetic rounded up to whole bytes per entry (float
// accumulation used to truncate fractional bytes-per-pixel footprints on
// large caches).
func footprint(w, h, bands, bits int) int64 {
	samples := int64(w) * int64(h) * int64(bands)
	return (samples*int64(bits) + 7) / 8
}

// Get returns the cached reference for loc, or nil. It does not count as a
// visit; capture processing uses Visit so eviction recency tracks the
// schedule. A compressed entry is decoded like a visit would.
func (c *RefCache) Get(loc int) *LowResRef {
	c.mu.RLock()
	e := c.entries[loc]
	c.mu.RUnlock()
	if e == nil {
		return nil
	}
	return c.load(loc, e)
}

// Visit returns the cached reference for loc, recording the visit day for
// eviction recency. A nil return is a cache MISS: the reference was
// evicted (or never seeded) and the caller must fall back to
// reference-free encoding. Recency is keyed by day, so concurrent visits
// to distinct locations leave the same state in any order. A compressed
// cache decodes the stored frame on every visit — decode-on-visit is the
// cost the compressed footprint trades for.
func (c *RefCache) Visit(loc, day int) *LowResRef {
	c.mu.Lock()
	c.lastDay = max(c.lastDay, day)
	e := c.entries[loc]
	if e == nil {
		c.misses++
	} else {
		e.lastVisit = max(e.lastVisit, day)
	}
	c.mu.Unlock()
	if e == nil {
		return nil
	}
	return c.load(loc, e)
}

// Put replaces the reference for loc (the image is not copied) and returns
// the locations evicted to fit it under the storage budget (nil when
// nothing was evicted). The caller owns ground-mirror bookkeeping for the
// returned locations; a new reference larger than the whole budget evicts
// itself and the cache stays without the entry.
//
// A compressed cache expects the PRE-storage-codec image (e.g. the
// bootstrap seed, or a decoded uplink update before mirror simulation)
// and stores its encoded frame; the image itself is not retained, and the
// next Visit decodes the frame — NOT the bytes passed here. Installing an
// image that already went through the storage codec would apply the codec
// twice and diverge from the ground's mirror.
func (c *RefCache) Put(loc int, im *raster.Image, day int) []int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.putLocked(loc, im, day)
}

// putLocked installs im as loc's content: as is in a raw store, through
// the storage codec in a compressed one.
func (c *RefCache) putLocked(loc int, im *raster.Image, day int) []int {
	e := &entry{w: im.Width, h: im.Height, bands: im.Bands, day: day}
	if c.cfg.Compress {
		e.frame = c.encodeFrame(im)
		e.bytes = int64(len(e.frame))
	} else {
		e.img = im
		e.bytes = footprint(im.Width, im.Height, im.NumBands(), c.cfg.BitsPerSample)
	}
	return c.installLocked(loc, e)
}

// PutFrame installs a pre-encoded storage frame for loc — the uplink's
// reference codestream routed straight into the store, with no raw
// expansion and no re-encode. decoded supplies the frame's geometry (its
// pixels are not retained); day stamps the entry's content freshness.
// Only valid on a compressed cache. Like Put, it returns the locations
// evicted to fit the entry.
func (c *RefCache) PutFrame(loc int, frame container.Codestream, decoded *raster.Image, day int) []int {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.cfg.Compress {
		panic("sat: PutFrame on a raw reference cache")
	}
	return c.installLocked(loc, &entry{
		frame: frame,
		w:     decoded.Width, h: decoded.Height,
		bands: decoded.Bands,
		day:   day,
		bytes: int64(len(frame)),
	})
}

// ApplyTileUpdate copies the marked low-resolution tiles of update into
// the cached reference for loc and advances its day. A missing cache entry
// is created from the update itself (the ground ships whole-image updates
// to re-seed evicted references). Like Put, it returns any locations
// evicted to keep the footprint under budget: a raw splice never changes
// the footprint, but a compressed entry is re-encoded after the splice and
// its new frame may be larger.
//
// A raw entry is spliced into a copy of its image, never in place. A
// compressed entry's content is decode(frame), one storage-codec
// generation past the splice input, exactly as the ground's mirror
// simulation models it. A TILED frame takes the per-tile path:
// SpliceStoredRef region-decodes and re-encodes only the codec tiles a
// changed mask tile touches and carries every other tile's payload bytes
// over verbatim — no whole-frame decode, no whole-frame re-encode, and no
// generation loss on untouched tiles. The ground's mirror simulation
// splices its frame through the same function, so both sides stay
// byte-coherent.
func (c *RefCache) ApplyTileUpdate(loc int, update *raster.Image, perBand []*raster.TileMask, day int) []int {
	c.mu.Lock()
	defer c.mu.Unlock()
	old := c.entries[loc]
	if old == nil {
		return c.putLocked(loc, update, day)
	}
	e := *old
	e.day = day
	switch {
	case old.frame == nil:
		e.img = old.img.Clone()
		spliceTiles(e.img, update, perBand)
	case old.frame.Tiled():
		frame, _, err := SpliceStoredRef(old.frame, old.w, old.h, old.bands, update, perBand, c.cfg.StoreBPP, c.cfg.Codec)
		if err != nil {
			panic(fmt.Sprintf("sat: loc %d: %v", loc, err))
		}
		e.frame = frame
	default:
		base := c.decode(loc, old)
		spliceTiles(base, update, perBand)
		e.frame = c.encodeFrame(base)
	}
	if e.frame != nil {
		e.bytes = int64(len(e.frame))
	}
	return c.installLocked(loc, &e)
}

// spliceTiles copies the marked tiles of update into dst.
func spliceTiles(dst, update *raster.Image, perBand []*raster.TileMask) {
	for b, mask := range perBand {
		if mask == nil {
			continue
		}
		for t, set := range mask.Set {
			if set {
				raster.CopyTile(dst, update, b, mask.Grid, t)
			}
		}
	}
}

// installLocked makes e loc's entry, books its footprint, and returns the
// locations evicted to fit it. Recency is stamped with the cache's current
// day (lastDay), NOT the reference's content day: uplink updates install
// content captured days ago, and stamping them with the content day would
// make every freshly re-seeded entry the least-recently-visited one — it
// would be evicted again on the very next install, thrashing the store
// into permanent misses. lastDay is the maximum day any visit or install
// has reached (so no entry's lastVisit exceeds it), which at the engine's
// serial install phases equals the current simulation day at every worker
// count.
func (c *RefCache) installLocked(loc int, e *entry) []int {
	c.lastDay = max(c.lastDay, e.day)
	e.lastVisit = c.lastDay
	if old := c.entries[loc]; old != nil {
		c.used -= old.bytes
	}
	c.entries[loc] = e
	c.used += e.bytes
	return c.evictLocked(loc)
}

// evictLocked removes entries until the footprint fits the budget and
// returns the evicted locations; installed is the entry whose insert
// triggered the check. An installed entry that can NEVER fit — larger by
// itself than the whole budget — is evicted first, so one oversize insert
// costs only itself instead of flushing every other cached reference on
// its way out. Victim selection is a pure function of (policy, entry
// metadata, lastDay), so a run is deterministic at any engine worker
// count.
func (c *RefCache) evictLocked(installed int) []int {
	if c.cfg.BudgetBytes <= 0 {
		return nil
	}
	var evicted []int
	if c.entries[installed].bytes > c.cfg.BudgetBytes {
		evicted = append(evicted, c.removeLocked(installed))
	}
	for c.used > c.cfg.BudgetBytes && len(c.entries) > 0 {
		evicted = append(evicted, c.removeLocked(c.victimLocked()))
	}
	return evicted
}

// removeLocked drops one entry and its accounting, counting the eviction.
func (c *RefCache) removeLocked(victim int) int {
	c.used -= c.entries[victim].bytes
	delete(c.entries, victim)
	c.evictions++
	return victim
}

// victimLocked picks the next location to evict under the configured
// policy. Ties always break toward the smaller location id, so the choice
// is unique regardless of map iteration order.
func (c *RefCache) victimLocked() int {
	victim, best := -1, 0
	for loc, e := range c.entries {
		var key int
		switch c.cfg.Policy {
		case PolicySchedule:
			// Farthest next planned visit goes first; negated so that the
			// shared "smaller key wins" comparison below applies.
			key = -c.cfg.NextVisit(loc, c.lastDay)
		default: // PolicyLRU
			key = e.lastVisit
		}
		if victim < 0 || key < best || (key == best && loc < victim) {
			victim, best = loc, key
		}
	}
	return victim
}

// FootprintBytes returns the cache's accounted storage footprint.
func (c *RefCache) FootprintBytes() int64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.used
}

// StorageBytes returns the cache's hypothetical footprint at bitsPerSample
// of storage per band sample, in exact integer arithmetic (each entry
// rounds up to whole bytes). For a compressed cache this is the raw-rate
// equivalent of the resident set — compare it against FootprintBytes (the
// real encoded bytes) to read off the achieved storage compression.
func (c *RefCache) StorageBytes(bitsPerSample int) int64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	var total int64
	for _, e := range c.entries {
		total += footprint(e.w, e.h, len(e.bands), bitsPerSample)
	}
	return total
}

// Stats reports how many capacity evictions and Visit misses the cache has
// seen — the observable signal that a storage budget is binding.
func (c *RefCache) Stats() (evictions, misses int64) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.evictions, c.misses
}

// Decodes reports how many stored frames the cache decoded: one per
// compressed Visit or Get hit (plus one per monolithic ApplyTileUpdate),
// zero in raw mode.
func (c *RefCache) Decodes() int64 { return c.decodes.Load() }

// DecodeWall reports the cumulative wall-clock spent decoding stored
// frames. Like every timing it stays out of the determinism-checked
// record stream, but it is the actual decode-on-visit price a compressed
// store paid, which the sim-engine snapshot records so the cost stops
// being invisible.
func (c *RefCache) DecodeWall() time.Duration { return time.Duration(c.decodeNanos.Load()) }

// Len returns the number of cached references.
func (c *RefCache) Len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.entries)
}
