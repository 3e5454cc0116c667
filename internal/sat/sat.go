// Package sat implements the on-board half of the reproduction: the
// reference cache a satellite keeps for every location it will visit, and
// the capture-processing pipeline of §5 — cheap cloud removal, image
// dropping, illumination alignment, downsampled change detection, and
// region-of-interest encoding of the changed tiles.
package sat

import (
	"context"
	"fmt"
	"sync"

	"earthplus/internal/codec"
	"earthplus/internal/container"
	"earthplus/internal/orbit"
	"earthplus/internal/raster"
)

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
// ground mirror) assumes. Earth+'s store and the SatRoI baseline's
// full-resolution store both account at this one constant, so the
// accounting rate cannot drift between layers.
const RawBitsPerSample = 16

// CacheConfig bounds a reference cache to a satellite's finite on-board
// store. The zero value means unbounded raw storage (the pre-storage-model
// behavior).
type CacheConfig struct {
	// BudgetBytes caps the cache footprint; <= 0 means unlimited.
	BudgetBytes int64
	// Policy selects the eviction order ("" = lru).
	Policy Policy
	// NextVisit predicts the first day strictly after afterDay on which
	// the satellite revisits loc. Required by PolicySchedule.
	NextVisit func(loc, afterDay int) int
	// Storage is what the cache keeps for each reference. The ground's
	// mirrors must use the same Storage (station.Config.Storage), or delta
	// uplinks would be encoded against content the satellite never held.
	Storage Storage
}

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
	if c.Storage.Compress && c.Storage.BPP <= 0 {
		return fmt.Errorf("sat: compressed reference store needs a positive Storage.BPP rate")
	}
	return nil
}

// Storage is what a reference store keeps for each reference: the raw
// planes, or with Compress one container frame coded at BPP bits per pixel
// per band with Codec. The ground builds every Ref an on-board store
// installs through the same Storage, so its mirror holds exactly what the
// store decodes. Earth+ codes its uplink reference updates at the same BPP
// and Codec: references live on board at the rate they arrive at.
type Storage struct {
	// Compress keeps frames instead of raw planes: the footprint charged
	// against a budget is the frame's real byte count (at Earth+'s 6 bpp
	// about 2.7x below RawBitsPerSample, so the same budget holds ~2.7x
	// more locations), and the pipeline decodes the frame for every
	// capture that survives the cloud drop.
	Compress bool
	// BPP is the rate of a compressed reference, in bits per pixel per
	// band; required (> 0) with Compress.
	BPP float64
	// Codec configures the codec of a compressed reference.
	Codec codec.Options
}

// Ref is one reference as a store keeps it: Image in a raw store, or Frame
// plus the geometry to decode it (W, H, Bands) in a compressed one. A Ref
// and everything it points to are immutable, so one Ref may back several
// satellites' stores and the ground's mirrors at once.
type Ref struct {
	Image *raster.Image
	Frame container.Codestream
	W, H  int
	Bands []raster.BandInfo
}

// Hold returns the Ref a store keeps for content im: im itself, or its
// frame, whose content (Load) is one codec generation past im.
func (s Storage) Hold(im *raster.Image) (Ref, error) {
	if !s.Compress {
		return Ref{Image: im}, nil
	}
	opts := s.Codec
	opts.BudgetBytes = codec.BandBudget(s.BPP, im.Width*im.Height)
	frame, err := codec.EncodeFrame(im.NumBands(), opts.Parallelism, func(b int) ([]byte, error) {
		return codec.EncodePlane(im.Plane(b), im.Width, im.Height, opts)
	})
	if err != nil {
		return Ref{}, fmt.Errorf("sat: encoding stored reference: %w", err)
	}
	return Ref{Frame: frame, W: im.Width, H: im.Height, Bands: im.Bands}, nil
}

// SpliceStats reports what a per-tile reference splice touched: how many
// codec tiles were re-encoded versus carried over verbatim. The counters
// are the measured savings of the tiled profile (a monolithic splice
// decodes and re-encodes every tile, i.e. Reencoded == Total).
type SpliceStats struct {
	TilesReencoded int64
	TilesTotal     int64
}

// Update returns the Ref for next, the content a reference held as prev
// takes once the tiles marked in changed (one mask per band; nil leaves a
// band alone) are replaced. A tiled prev frame is spliced band by band
// through codec.TiledSplicePlane, which reads only next's changed tiles:
// the codec tiles they touch are decoded, overlaid and re-encoded, and
// every other tile keeps its payload bytes, skipping a codec generation.
// Any other prev — a raw image, a monolithic frame, or the zero Ref of a
// reference not held yet — gives Hold(next).
func (s Storage) Update(prev Ref, next *raster.Image, changed []*raster.TileMask) (Ref, SpliceStats, error) {
	var stats SpliceStats
	if !prev.Frame.Tiled() {
		ref, err := s.Hold(next)
		return ref, stats, err
	}
	streams, err := prev.Frame.SplitNoCRC()
	if err != nil {
		return Ref{}, stats, fmt.Errorf("sat: splicing stored reference: %w", err)
	}
	if len(streams) != len(prev.Bands) {
		return Ref{}, stats, fmt.Errorf("sat: stored reference frame carries %d bands, want %d", len(streams), len(prev.Bands))
	}
	opts := s.Codec
	opts.BudgetBytes = codec.BandBudget(s.BPP, prev.W*prev.H)
	reencoded := make([]int, len(streams))
	total := make([]int, len(streams))
	frame, err := codec.EncodeFrame(len(streams), opts.Parallelism, func(b int) ([]byte, error) {
		mask := changed[b]
		if streams[b] == nil || mask == nil || mask.Count() == 0 {
			return streams[b], nil
		}
		data, n, nt, err := codec.TiledSplicePlane(streams[b], next.Plane(b), mask, opts)
		reencoded[b], total[b] = n, nt
		return data, err
	})
	if err != nil {
		return Ref{}, stats, fmt.Errorf("sat: splicing stored reference: %w", err)
	}
	for b := range streams {
		stats.TilesReencoded += int64(reencoded[b])
		stats.TilesTotal += int64(total[b])
	}
	return Ref{Frame: frame, W: prev.W, H: prev.H, Bands: prev.Bands}, stats, nil
}

// Load returns r's content: a raw Ref's own image, or a compressed one's
// frame decoded into a fresh image. Bands decode one after another: the
// pipeline's loads run inside the sharded engine's capture workers.
func (r Ref) Load() (*raster.Image, error) {
	if r.Frame == nil {
		return r.Image, nil
	}
	im, err := codec.DecodeFrame(context.Background(), r.Frame, r.Bands, 0, 1)
	if err != nil {
		return nil, fmt.Errorf("sat: stored reference frame: %w", err)
	}
	if im.NumBands() != len(r.Bands) || im.Width != r.W || im.Height != r.H {
		return nil, fmt.Errorf("sat: stored reference frame decodes to %d bands of %dx%d, want %d of %dx%d",
			im.NumBands(), im.Width, im.Height, len(r.Bands), r.W, r.H)
	}
	return im, nil
}

// rawBytes is r's size at RawBitsPerSample, in exact integer arithmetic
// rounded up to whole bytes.
func (r Ref) rawBytes() int64 {
	w, h, bands := r.W, r.H, len(r.Bands)
	if r.Frame == nil {
		w, h, bands = r.Image.Width, r.Image.Height, r.Image.NumBands()
	}
	samples := int64(w) * int64(h) * int64(bands)
	return (samples*RawBitsPerSample + 7) / 8
}

// bytes is the footprint a store charges for r: a frame's real byte count,
// or the raw planes at RawBitsPerSample.
func (r Ref) bytes() int64 {
	if r.Frame != nil {
		return int64(len(r.Frame))
	}
	return r.rawBytes()
}

// entry is one stored reference. Every field but lastVisit is fixed at
// install — an update installs a new entry — so the Ref a Visit or Get
// hands out may be read after the cache lock is released.
type entry struct {
	ref Ref
	// day is the content's capture day; lastVisit the day of the most
	// recent visit or install, the recency LRU eviction reads.
	day, lastVisit int
}

// RefCache holds a satellite's on-board reference images, keyed by
// location, bounded by the satellite's storage budget. Earth+ caches
// references on board so that uplink updates only need to carry changed
// reference tiles (§4.3); because the store is finite, an insert may evict
// other locations, and a later Visit of an evicted location MISSES — the
// pipeline then falls back to reference-free encoding until the ground
// re-seeds the reference over the uplink.
//
// The store keeps each reference as its CacheConfig.Storage dictates: raw
// planes, or a container frame at the uplink's reference rate, whose
// footprint is its real encoded byte count (so the same budget holds ~2.7x
// more locations at Earth+'s 6 bpp). The store is pure storage: Visit and
// Get hand out the Ref it holds and never decode, and the pipeline loads a
// Ref only for a capture it keeps. The ground builds the Ref a store
// installs through the same Storage and mirrors its Load, so what the
// satellite detects changes against is byte-equal to what the ground
// believes it holds.
//
// Ownership: a Ref and its image or frame are never mutated, and
// ApplyTileUpdate splices into a new image. One Ref may therefore back
// several satellites' stores and the ground's mirrors at once, and no
// caller may write to a Ref, or an image, it passed in or got back.
//
// Determinism contract: eviction decisions depend only on the visit
// schedule (day numbers), never on wall-clock or goroutine order. Visit
// records recency per location as the capture day — concurrent visits to
// distinct locations write distinct entries, so the sharded engine reaches
// the same cache state at any worker count — and every mutation that can
// evict (Install, Put, ApplyTileUpdate) happens on the engine's serial
// phases (bootstrap, day-end barrier).
//
// The cache is safe for concurrent use on DISTINCT locations: the sharded
// simulation engine looks up references for many locations at once while a
// satellite's cache is shared across its day's visits. Same-location
// ordering is the caller's responsibility (the engine serialises each
// location's visit sequence).
type RefCache struct {
	mu      sync.RWMutex
	cfg     CacheConfig
	entries map[int]*entry
	// used is the accounted footprint of every entry, in bytes.
	used int64
	// lastDay is the latest day observed by a Visit or an install;
	// PolicySchedule predicts next visits relative to it.
	lastDay int
	// evictions and misses count capacity evictions and Visit misses.
	evictions, misses int64
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

// held returns e's Ref and the capture day of its content, or nil for a
// missing entry.
func (e *entry) held() (*Ref, int) {
	if e == nil {
		return nil, 0
	}
	return &e.ref, e.day
}

// Get returns loc's stored Ref and the capture day of its content, or nil.
// It does not count as a visit; capture processing uses Visit so eviction
// recency tracks the schedule.
func (c *RefCache) Get(loc int) (*Ref, int) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.entries[loc].held()
}

// Visit returns loc's stored Ref and the capture day of its content,
// recording the visit day for eviction recency. A nil Ref is a cache
// MISS: the reference was evicted (or never seeded) and the caller must
// fall back to reference-free encoding. Recency is keyed by day, so
// concurrent visits to distinct locations leave the same state in any
// order. Nothing is decoded here: a compressed Ref's frame is decoded by
// whoever loads it (Pipeline.Process, for a capture it keeps).
func (c *RefCache) Visit(loc, day int) (*Ref, int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.lastDay = max(c.lastDay, day)
	e := c.entries[loc]
	if e == nil {
		c.misses++
	} else {
		e.lastVisit = max(e.lastVisit, day)
	}
	return e.held()
}

// Put installs the Storage's Ref for content im (Install(loc,
// Storage.Hold(im), day)). A compressed cache expects the PRE-storage-codec
// image and keeps only its frame: loading the stored Ref decodes the
// frame, NOT the pixels passed here.
func (c *RefCache) Put(loc int, im *raster.Image, day int) []int {
	ref, err := c.cfg.Storage.Hold(im)
	if err != nil {
		// The caller's reference image always encodes; a failure is a
		// programming error, not a runtime condition.
		panic(fmt.Sprintf("sat: loc %d: %v", loc, err))
	}
	return c.Install(loc, ref, day)
}

// Install makes ref loc's reference, with content captured on day, and
// returns the locations evicted to fit it under the storage budget (nil
// when nothing was evicted). The caller owns ground-mirror bookkeeping
// for the returned locations; a reference larger than the whole budget
// evicts itself and the cache stays without the entry. ref must be of the
// store's kind — a frame in a compressed store, an image in a raw one —
// or Install panics.
func (c *RefCache) Install(loc int, ref Ref, day int) []int {
	if (ref.Frame != nil) != c.cfg.Storage.Compress {
		panic(fmt.Sprintf("sat: loc %d: reference of the other storage kind", loc))
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.installLocked(loc, &entry{ref: ref, day: day})
}

// ApplyTileUpdate copies the marked low-resolution tiles of update into
// the cached reference for loc and advances its day. A missing cache entry
// is created from the update itself (the ground ships whole-image updates
// to re-seed evicted references). Like Install, it returns any locations
// evicted to keep the footprint under budget: a raw splice never changes
// the footprint, but a compressed entry is re-encoded and its new frame
// may be larger.
//
// The new Ref comes from Storage.Update, as the ground's mirror's does. A
// TILED frame splices update's marked tiles in per codec tile, with no
// whole-frame decode or re-encode. Any other entry is spliced into a copy
// of its content (decoded, for a monolithic frame), which the Storage then
// holds afresh.
func (c *RefCache) ApplyTileUpdate(loc int, update *raster.Image, perBand []*raster.TileMask, day int) []int {
	c.mu.Lock()
	defer c.mu.Unlock()
	var prev Ref
	next := update
	if old := c.entries[loc]; old != nil {
		prev = old.ref
		if !prev.Frame.Tiled() {
			im, err := prev.Load()
			if err != nil {
				panic(fmt.Sprintf("sat: loc %d: %v", loc, err))
			}
			next = im.Clone()
			spliceTiles(next, update, perBand)
		}
	}
	ref, _, err := c.cfg.Storage.Update(prev, next, perBand)
	if err != nil {
		panic(fmt.Sprintf("sat: loc %d: %v", loc, err))
	}
	return c.installLocked(loc, &entry{ref: ref, day: day})
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
		c.used -= old.ref.bytes()
	}
	c.entries[loc] = e
	c.used += e.ref.bytes()
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
	if c.entries[installed].ref.bytes() > c.cfg.BudgetBytes {
		evicted = append(evicted, c.removeLocked(installed))
	}
	for c.used > c.cfg.BudgetBytes && len(c.entries) > 0 {
		evicted = append(evicted, c.removeLocked(c.victimLocked()))
	}
	return evicted
}

// removeLocked drops one entry and its accounting, counting the eviction.
func (c *RefCache) removeLocked(victim int) int {
	c.used -= c.entries[victim].ref.bytes()
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

// StorageBytes returns the cache's footprint at RawBitsPerSample, in
// exact integer arithmetic (each entry rounds up to whole bytes). For a
// compressed cache this is the raw-rate equivalent of the resident set —
// compare it against FootprintBytes (the real encoded bytes) to read off
// the achieved storage compression.
func (c *RefCache) StorageBytes() int64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	var total int64
	for _, e := range c.entries {
		total += e.ref.rawBytes()
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

// Len returns the number of cached references.
func (c *RefCache) Len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.entries)
}
