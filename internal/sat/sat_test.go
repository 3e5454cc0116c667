package sat

import (
	"testing"

	"earthplus/internal/cloud"
	"earthplus/internal/codec"
	"earthplus/internal/container"
	"earthplus/internal/raster"
	"earthplus/internal/scene"
)

func testScene() *scene.Scene {
	return scene.New(scene.LargeConstellationSampled(scene.Quick))
}

func testPipeline(s *scene.Scene) *Pipeline {
	return &Pipeline{
		Bands:         s.Bands(),
		Grid:          s.Grid(),
		Downsample:    4,
		CloudDet:      cloud.DefaultCheap(s.Bands()),
		Theta:         0.008,
		DropCoverage:  0.5,
		CloudTileFrac: 0.25,
	}
}

func clearCapture(t *testing.T, s *scene.Scene, from int) *scene.Capture {
	t.Helper()
	for d := from; d < from+400; d++ {
		if s.CloudCoverageTarget(0, d) < 0.005 {
			return s.CaptureImage(0, d, 0)
		}
	}
	t.Fatal("no clear day found")
	return nil
}

func cloudyCapture(t *testing.T, s *scene.Scene, minCov float64) *scene.Capture {
	t.Helper()
	for d := 0; d < 800; d++ {
		if s.CloudCoverageTarget(0, d) > minCov {
			return s.CaptureImage(0, d, 0)
		}
	}
	t.Fatal("no cloudy day found")
	return nil
}

// holds reports whether c holds every one of locs.
func holds(c *RefCache, locs ...int) bool {
	for _, loc := range locs {
		if ref, _ := c.Get(loc); ref == nil {
			return false
		}
	}
	return true
}

func TestRefCacheBasics(t *testing.T) {
	c := NewRefCache()
	if ref, _ := c.Get(3); ref != nil || c.Len() != 0 {
		t.Fatal("fresh cache not empty")
	}
	im := raster.New(8, 8, raster.PlanetBands())
	c.Put(3, im, 17)
	if ref, day := c.Get(3); ref == nil || ref.Image != im || day != 17 {
		t.Fatalf("Get = %+v, day %d", ref, day)
	}
	if c.StorageBytes() != 8*8*4*2 {
		t.Fatalf("StorageBytes = %d", c.StorageBytes())
	}
	if c.Len() != 1 {
		t.Fatalf("Len = %d", c.Len())
	}
}

// TestStorageBytesIntegerAccounting is the regression test for the float64
// footprint accounting (float accumulation followed by int64 truncation
// used to drop bytes on large caches): over many odd-sized references the
// raw store accounts every entry in exact integer arithmetic at
// RawBitsPerSample, and its charged footprint is that same figure.
func TestStorageBytesIntegerAccounting(t *testing.T) {
	c := NewRefCache()
	bands := raster.PlanetBands()[:3]
	const n = 1024
	for loc := 0; loc < n; loc++ {
		c.Put(loc, raster.New(9, 9, bands), 0) // 9x9x3 = 243 samples
	}
	if got := c.StorageBytes(); got != int64(243*2*n) {
		t.Fatalf("StorageBytes = %d, want %d", got, 243*2*n)
	}
	if got := c.FootprintBytes(); got != c.StorageBytes() {
		t.Fatalf("raw FootprintBytes = %d, want StorageBytes %d", got, c.StorageBytes())
	}
}

// boundedCache builds a cache with the given budget over 8x8x4 refs
// (512 bytes each at 16 bits/sample).
func boundedCache(t *testing.T, budget int64, policy Policy, next func(loc, after int) int) *RefCache {
	t.Helper()
	c, err := NewBoundedRefCache(CacheConfig{BudgetBytes: budget, Policy: policy, NextVisit: next})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func ref8(t *testing.T) *raster.Image {
	t.Helper()
	return raster.New(8, 8, raster.PlanetBands())
}

func TestBoundedCacheEvictsLRU(t *testing.T) {
	// Budget fits exactly two 512-byte references.
	c := boundedCache(t, 1024, PolicyLRU, nil)
	if ev := c.Put(0, ref8(t), 1); ev != nil {
		t.Fatalf("first insert evicted %v", ev)
	}
	if ev := c.Put(1, ref8(t), 2); ev != nil {
		t.Fatalf("second insert evicted %v", ev)
	}
	// Visiting loc 0 makes loc 1 the least-recently-visited.
	if ref, _ := c.Visit(0, 3); ref == nil {
		t.Fatal("visit of cached loc missed")
	}
	if ev := c.Put(2, ref8(t), 4); len(ev) != 1 || ev[0] != 1 {
		t.Fatalf("evicted %v, want [1]", ev)
	}
	if !holds(c, 0, 2) || holds(c, 1) {
		t.Fatal("want locations 0 and 2 held and the evicted 1 gone")
	}
	if got := c.FootprintBytes(); got != 1024 {
		t.Fatalf("footprint %d after eviction, want 1024", got)
	}
	// The miss is observable and counted.
	if ref, _ := c.Visit(1, 5); ref != nil {
		t.Fatal("evicted entry served a visit")
	}
	ev, miss := c.Stats()
	if ev != 1 || miss != 1 {
		t.Fatalf("Stats = (%d evictions, %d misses), want (1, 1)", ev, miss)
	}
}

func TestBoundedCacheSchedulePolicy(t *testing.T) {
	// Next visit: loc 0 tomorrow, loc 1 in 3 days, loc 2 in 9 days.
	gaps := map[int]int{0: 1, 1: 3, 2: 9}
	next := func(loc, after int) int { return after + gaps[loc] }
	c := boundedCache(t, 1024, PolicySchedule, next)
	c.Put(0, ref8(t), 1)
	c.Put(1, ref8(t), 1)
	// Inserting loc 2 overflows; its own next visit is farthest, so the
	// schedule policy sheds the newcomer and keeps the soon-revisited refs.
	if ev := c.Put(2, ref8(t), 2); len(ev) != 1 || ev[0] != 2 {
		t.Fatalf("evicted %v, want [2] (farthest next visit)", ev)
	}
	// Flip the horizon: now loc 1 is the farthest of the cached pair.
	gaps[2] = 2
	if ev := c.Put(2, ref8(t), 3); len(ev) != 1 || ev[0] != 1 {
		t.Fatalf("evicted %v, want [1]", ev)
	}
}

func TestBoundedCacheOversizeEntryEvictsItself(t *testing.T) {
	c := boundedCache(t, 100, PolicyLRU, nil) // smaller than one 512-byte ref
	ev := c.Put(5, ref8(t), 1)
	if len(ev) != 1 || ev[0] != 5 {
		t.Fatalf("evicted %v, want the oversize entry [5]", ev)
	}
	if c.Len() != 0 || c.FootprintBytes() != 0 {
		t.Fatalf("cache holds %d entries / %d bytes after oversize insert", c.Len(), c.FootprintBytes())
	}
}

// TestBoundedCacheOversizeInsertKeepsOthers pins the heterogeneous-size
// regression: an insert that can never fit must cost only itself, not
// flush the older (and under LRU, lower-recency) entries on its way out.
func TestBoundedCacheOversizeInsertKeepsOthers(t *testing.T) {
	c := boundedCache(t, 1024, PolicyLRU, nil) // two 512-byte refs fit
	c.Put(0, ref8(t), 1)
	c.Put(1, ref8(t), 2)
	// 16x16x4 at 16 bits = 2048 bytes: larger than the whole budget.
	ev := c.Put(9, raster.New(16, 16, raster.PlanetBands()), 3)
	if len(ev) != 1 || ev[0] != 9 {
		t.Fatalf("evicted %v, want only the oversize entry [9]", ev)
	}
	if !holds(c, 0, 1) || c.Len() != 2 {
		t.Fatal("oversize insert flushed resident entries")
	}
	if got := c.FootprintBytes(); got != 1024 {
		t.Fatalf("footprint %d, want 1024", got)
	}
}

// TestApplyTileUpdateRefreshesRecency pins that an uplink splice counts as
// a visit for LRU purposes: the freshly refreshed entry must not stay the
// eviction victim.
func TestApplyTileUpdateRefreshesRecency(t *testing.T) {
	c := boundedCache(t, 1024, PolicyLRU, nil)
	c.Put(0, ref8(t), 1)
	c.Put(1, ref8(t), 2)
	c.Visit(1, 3)
	// Splice an update into loc 0 on day 10: it is now the most recently
	// refreshed entry, so the next overflow must evict loc 1 instead.
	c.ApplyTileUpdate(0, ref8(t), make([]*raster.TileMask, 4), 10)
	if ev := c.Put(2, ref8(t), 11); len(ev) != 1 || ev[0] != 1 {
		t.Fatalf("evicted %v, want [1] (loc 0 was refreshed on day 10)", ev)
	}
}

func TestBoundedCacheRejectsUnknownPolicy(t *testing.T) {
	if _, err := NewBoundedRefCache(CacheConfig{Policy: "mru"}); err == nil {
		t.Fatal("unknown policy accepted")
	}
	if _, err := NewBoundedRefCache(CacheConfig{Policy: PolicySchedule}); err == nil {
		t.Fatal("schedule policy without NextVisit accepted")
	}
}

func TestRefCacheApplyTileUpdate(t *testing.T) {
	c := NewRefCache()
	g := raster.MustTileGrid(8, 8, 4)
	base := raster.New(8, 8, raster.PlanetBands())
	c.Put(0, base, 5)
	update := raster.New(8, 8, raster.PlanetBands())
	update.Fill(0, 1)
	masks := make([]*raster.TileMask, 4)
	masks[0] = raster.NewTileMask(g)
	masks[0].Set[0] = true
	c.ApplyTileUpdate(0, update, masks, 9)
	ref, day := c.Get(0)
	if day != 9 {
		t.Fatalf("day = %d", day)
	}
	if ref.Image.At(0, 0, 0) != 1 || ref.Image.At(0, 7, 7) != 0 {
		t.Fatal("tile update applied wrong region")
	}
	// Update to an empty slot installs the image as-is.
	c.ApplyTileUpdate(1, update, masks, 3)
	if ref, day := c.Get(1); ref == nil || day != 3 {
		t.Fatal("update to empty slot not installed")
	}
}

func TestPipelineDropsCloudyCaptures(t *testing.T) {
	s := testScene()
	p := testPipeline(s)
	cap := cloudyCapture(t, s, 0.75)
	// A frame that cannot decode: a dropped capture must never load it.
	junk := &Ref{Frame: container.Codestream("not a frame"), W: 8, H: 8, Bands: s.Bands()}
	res, err := p.Process(cap.Image, junk)
	if err != nil {
		t.Fatalf("dropped capture loaded its reference: %v", err)
	}
	if !res.Dropped {
		t.Fatalf("capture with %.2f true coverage not dropped (detected %.2f)", cap.Coverage, res.CloudCover)
	}
	if res.Changed != nil {
		t.Fatal("dropped capture still ran change detection")
	}
	if res.CloudSec <= 0 {
		t.Fatal("cloud timing not recorded")
	}
	if _, err := p.Process(clearCapture(t, s, 0).Image, junk); err == nil {
		t.Fatal("a kept capture did not load its reference")
	}
}

func TestPipelineNoReferenceYieldsNilChanged(t *testing.T) {
	s := testScene()
	p := testPipeline(s)
	cap := clearCapture(t, s, 0)
	res, err := p.Process(cap.Image, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Dropped || res.Changed != nil {
		t.Fatalf("no-ref result: dropped=%v changed=%v", res.Dropped, res.Changed != nil)
	}
}

func TestPipelineDetectsInjectedChange(t *testing.T) {
	s := testScene()
	p := testPipeline(s)
	cap := clearCapture(t, s, 0)
	// Reference = downsampled truth of the same day: no real change.
	refImg, err := cap.Truth.Downsample(p.Downsample)
	if err != nil {
		t.Fatal(err)
	}
	ref := &Ref{Image: refImg}
	res, err := p.Process(cap.Image, ref)
	if err != nil {
		t.Fatal(err)
	}
	if res.Dropped {
		t.Fatal("clear capture dropped")
	}
	for b, m := range res.Changed {
		if m.Grid != p.Grid {
			t.Fatalf("band %d: changed mask on grid %+v, want the capture's %+v", b, m.Grid, p.Grid)
		}
	}
	baselineCount := res.Changed[0].Count()

	// Inject a strong change into one tile of the capture and reprocess.
	g := p.Grid
	target := g.NumTiles() / 2
	x0, y0, x1, y1 := g.Bounds(target)
	mod := cap.Image.Clone()
	for y := y0; y < y1; y++ {
		for x := x0; x < x1; x++ {
			mod.Set(0, x, y, mod.At(0, x, y)*0.3+0.5)
		}
	}
	res2, err := p.Process(mod, ref)
	if err != nil {
		t.Fatal(err)
	}
	if !res2.Changed[0].Set[target] {
		t.Fatal("injected change not detected")
	}
	if res2.Changed[0].Count() > baselineCount+3 {
		t.Fatalf("injection rippled: %d -> %d flagged tiles", baselineCount, res2.Changed[0].Count())
	}
}

func TestPipelineFalsePositiveFloorIsLow(t *testing.T) {
	s := testScene()
	p := testPipeline(s)
	cap := clearCapture(t, s, 0)
	refImg, _ := cap.Truth.Downsample(p.Downsample)
	res, err := p.Process(cap.Image, &Ref{Image: refImg})
	if err != nil {
		t.Fatal(err)
	}
	// Same-day reference: everything flagged is a false positive (sensor
	// noise, illumination residual). The paper's profiling keeps this
	// near zero.
	if frac := res.Changed[0].Fraction(); frac > 0.08 {
		t.Fatalf("false-positive changed fraction = %.3f on a no-change day", frac)
	}
}

func TestPipelineRejectsGeometryMismatch(t *testing.T) {
	s := testScene()
	p := testPipeline(s)
	wrong := raster.New(32, 32, s.Bands())
	if _, err := p.Process(wrong, nil); err == nil {
		t.Fatal("expected geometry error")
	}
	cap := clearCapture(t, s, 0)
	badRef := &Ref{Image: raster.New(5, 5, s.Bands())}
	if _, err := p.Process(cap.Image, badRef); err == nil {
		t.Fatal("expected reference-shape error")
	}
}

func TestClearPixelsLow(t *testing.T) {
	m := cloud.NewMask(8, 8)
	// Fully cloud the top-left 4x4 block.
	for y := 0; y < 4; y++ {
		for x := 0; x < 4; x++ {
			m.Set(x, y, true)
		}
	}
	low := clearPixelsLow(m, 4, 2, 2)
	if low[0] || !low[1] || !low[2] || !low[3] {
		t.Fatalf("clearPixelsLow = %v", low)
	}
}

func TestEncodeROIBudgetAndNilBands(t *testing.T) {
	s := testScene()
	cap := clearCapture(t, s, 0)
	g := s.Grid()
	roi := make([]*raster.TileMask, len(s.Bands()))
	mask := raster.NewTileMask(g)
	for i := 0; i < g.NumTiles()/4; i++ {
		mask.Set[i*2] = true
	}
	roi[0] = mask // only band 0 downloads
	frame, err := EncodeROI(cap.Image, roi, 1.0, codec.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	streams, err := frame.Split()
	if err != nil {
		t.Fatal(err)
	}
	if len(streams) != len(roi) {
		t.Fatalf("frame carries %d bands, want %d", len(streams), len(roi))
	}
	if streams[1] != nil || streams[2] != nil {
		t.Fatal("empty-ROI bands produced streams")
	}
	budget := int(1.0 * float64(mask.Count()*g.Tile*g.Tile) / 8)
	if len(streams[0]) > budget+256 {
		t.Fatalf("band stream %d bytes exceeds gamma budget %d", len(streams[0]), budget)
	}
	if MaskOverheadBytes(roi) != codec.ROIMaskBytes(g) {
		t.Fatalf("MaskOverheadBytes = %d", MaskOverheadBytes(roi))
	}
}

func TestEncodeROIDecodableByStationPath(t *testing.T) {
	s := testScene()
	cap := clearCapture(t, s, 0)
	g := s.Grid()
	mask := raster.NewTileMask(g)
	mask.Set[0], mask.Set[7] = true, true
	roi := []*raster.TileMask{mask, nil, nil, nil}
	frame, err := EncodeROI(cap.Image, roi, 4.0, codec.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	dst := raster.New(g.ImageW, g.ImageH, s.Bands())
	if err := codec.DecodeROIFrame(frame, roi, nil, dst); err != nil {
		t.Fatal(err)
	}
	x0, y0, _, _ := g.Bounds(7)
	got := dst.At(0, x0+8, y0+8)
	want := cap.Image.At(0, x0+8, y0+8)
	if d := got - want; d > 0.08 || d < -0.08 {
		t.Fatalf("decoded tile pixel off by %v", d)
	}
}
