// Package scene is the synthetic Earth-observation substrate: it generates
// multi-band imagery for a set of locations over simulated days, with slow
// terrestrial change, seasonal drift, snow dynamics, stochastic cloud
// fields, per-capture illumination shifts and sensor noise.
//
// It substitutes for the paper's Sentinel-2 and Planet datasets: every
// statistic Earth+'s savings depend on — changed
// tiles vs. reference age (Fig 4), cloud-free availability (Fig 5), band
// heterogeneity (Fig 14) — is calibrated to the published measurements, and
// everything is a deterministic function of the configuration seed.
package scene

import (
	"fmt"
	"math"
	"sync"

	"earthplus/internal/cloud"
	"earthplus/internal/illum"
	"earthplus/internal/noise"
	"earthplus/internal/raster"
)

// Location describes one observed region.
type Location struct {
	Name    string
	Content ContentType
	// SnowProne locations carry winter snow whose albedo drifts daily,
	// defeating reference-based encoding in winter (paper locations D, H).
	SnowProne bool
}

// CloudRegime parameterises the per-day cloud coverage distribution of a
// dataset.
type CloudRegime struct {
	// ClearProb is the probability a (location, day) is near-clear.
	ClearProb float64
	// ClearMax is the maximum coverage on near-clear days (the paper's
	// reference-selection cut-off is 1% coverage).
	ClearMax float64
	// CloudyMin / CloudyExp shape coverage on cloudy days:
	// cov = CloudyMin + (1-CloudyMin) * u^CloudyExp. The defaults give a
	// mean around the 2/3 global cloud coverage the paper cites.
	CloudyMin float64
	CloudyExp float64
}

// DefaultClouds matches the paper's numbers: ~25% of visits yield a <1%
// coverage image, the rest average roughly two-thirds cover.
func DefaultClouds() CloudRegime {
	return CloudRegime{ClearProb: 0.25, ClearMax: 0.01, CloudyMin: 0.15, CloudyExp: 0.5}
}

// ChangeModel parameterises terrestrial change.
type ChangeModel struct {
	// TileRatePerDay is the expected fraction of tiles starting a change
	// event each day (calibrated against Fig 4's changed-vs-age curve).
	TileRatePerDay float64
	// EventAmp is the peak pixel amplitude of a change event.
	EventAmp float64
	// SeasonalAmp is the annual drift's pixel amplitude.
	SeasonalAmp float64
	// SnowAlbedoJitter is the day-to-day albedo wobble of snow cover.
	SnowAlbedoJitter float64
}

// DefaultChanges calibrates change dynamics to the paper's measurements
// (≈11% of tiles changed at 10-day reference age, ≈3x more at 50 days).
func DefaultChanges() ChangeModel {
	return ChangeModel{TileRatePerDay: 0.012, EventAmp: 0.12, SeasonalAmp: 0.05, SnowAlbedoJitter: 0.10}
}

// Config fully describes a synthetic dataset.
type Config struct {
	Seed      uint64
	Width     int
	Height    int
	TileSize  int
	Bands     []raster.BandInfo
	Locations []Location
	Clouds    CloudRegime
	Changes   ChangeModel
	// IllumGainJitter / IllumOffsetJitter bound the per-capture linear
	// illumination model (gain in 1±jitter, offset in ±jitter).
	IllumGainJitter   float64
	IllumOffsetJitter float64
	// SensorNoise is the amplitude of per-pixel capture noise.
	SensorNoise float64
	// AtmosVariability is the amplitude of the day-to-day atmospheric
	// pattern observed at capture time, scaled per band by its
	// atmosphere weight (air-observing bands see it fully).
	AtmosVariability float64
	// MicroTexture is the amplitude of static fine-grained surface
	// detail. It is identical in every capture of a location, so it
	// cancels out of change detection — but it must be paid for by any
	// codec, keeping rate-distortion behaviour representative of real
	// (detail-rich, hard-to-compress) satellite imagery rather than of
	// smooth synthetic gradients.
	MicroTexture float64
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.Width <= 0 || c.Height <= 0 {
		return fmt.Errorf("scene: bad dimensions %dx%d", c.Width, c.Height)
	}
	if c.TileSize <= 0 || c.Width%c.TileSize != 0 || c.Height%c.TileSize != 0 {
		return fmt.Errorf("scene: tile %d does not divide %dx%d", c.TileSize, c.Width, c.Height)
	}
	if len(c.Bands) == 0 {
		return fmt.Errorf("scene: no bands")
	}
	if len(c.Locations) == 0 {
		return fmt.Errorf("scene: no locations")
	}
	return nil
}

// Capture is one simulated photograph. A capture from Sky.Capture shares
// its sky's Truth and TrueCloud with every other capture of that sky:
// nothing may write them, and the sky must outlive the capture. A capture
// from CaptureImage owns a private sky instead.
type Capture struct {
	Loc, Day, Sat int
	// Image is what the satellite sensed: truth + clouds + illumination +
	// noise, clamped to [0,1]. It always belongs to this capture alone.
	Image *raster.Image
	// TrueCloud is the ground-truth cloud mask (for evaluation and for
	// the ground station's "accurate" detector oracle tests; on-board
	// systems must use their own detectors). Read-only.
	TrueCloud *cloud.Mask
	// Truth is the cloud-free surface image at capture time (evaluation
	// only). Read-only.
	Truth *raster.Image
	// TrueIllum is the illumination model applied (evaluation only).
	TrueIllum illum.Model
	// Coverage is TrueCloud's cloudy fraction.
	Coverage float64

	// private is the sky a CaptureImage capture owns (nil when the
	// capture shares a caller's sky); ReleaseCapture releases it.
	private *Sky
}

// Sky is everything a capture of one (location, day) holds before its
// first satellite-dependent step: the ground truth, the true cloud mask
// and coverage, and the composite (the truth with the cloud blend and the
// atmosphere applied, unclamped). Every satellite over the location that
// day photographs the same sky, so it is synthesised once and each
// Capture adds only its satellite's illumination, sensor noise and clamp.
// Captures share the sky's Truth and TrueCloud read-only, so a sky must
// outlive its captures; Scene.ReleaseSky recycles it. Capture is safe for
// concurrent use.
type Sky struct {
	Loc, Day int
	// Truth is the cloud-free surface image. Read-only.
	Truth *raster.Image
	// TrueCloud is the ground-truth cloud mask. Read-only.
	TrueCloud *cloud.Mask
	// Coverage is TrueCloud's cloudy fraction.
	Coverage float64

	scene     *Scene
	composite *raster.Image
}

// Scene generates imagery for a dataset configuration. CaptureImage, Sky
// and GroundTruth are safe for concurrent use; per-location synthesis
// state is guarded by the scene mutex and everything else is a pure
// function of (seed, location, day), so results never depend on call
// order.
type Scene struct {
	cfg      Config
	src      *noise.Source
	profiles []bandProfile
	grid     raster.TileGrid

	mu   sync.Mutex
	locs []*locState

	// Pools recycle capture-sized buffers so scene synthesis stops
	// allocating per visit once the simulation reaches steady state.
	// Callers opt in by returning finished captures via ReleaseCapture
	// and finished skies via ReleaseSky.
	imgPool  sync.Pool // *raster.Image with the scene geometry
	f32Pool  sync.Pool // []float32 of Width*Height
	maskPool sync.Pool // *cloud.Mask of Width*Height
}

// locState caches per-location synthesis state.
type locState struct {
	terrain  terrainFields
	micro    []float32 // static fine-grained detail in [0,1]
	seasonal []float32 // low-frequency seasonal pattern in [0,1]
	base     *raster.Image
	// canvas is base plus all change events with day <= canvasDay.
	canvas    *raster.Image
	canvasDay int
	events    []event
	eventsTo  int // events generated for days < eventsTo
}

// New builds a scene. It panics on invalid configuration (construction
// happens at experiment setup, a bad config is a programming error).
func New(cfg Config) *Scene {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	s := &Scene{
		cfg:  cfg,
		src:  noise.New(cfg.Seed),
		grid: raster.MustTileGrid(cfg.Width, cfg.Height, cfg.TileSize),
	}
	s.profiles = make([]bandProfile, len(cfg.Bands))
	for i, b := range cfg.Bands {
		s.profiles[i] = profileFor(b)
	}
	s.locs = make([]*locState, len(cfg.Locations))
	s.imgPool.New = func() any { return raster.New(cfg.Width, cfg.Height, cfg.Bands) }
	s.f32Pool.New = func() any { return make([]float32, cfg.Width*cfg.Height) }
	s.maskPool.New = func() any { return cloud.NewMask(cfg.Width, cfg.Height) }
	return s
}

// getImage returns a pooled capture-sized image. Its content is stale; the
// caller must fully overwrite every plane.
func (s *Scene) getImage() *raster.Image { return s.imgPool.Get().(*raster.Image) }

// getF32 returns a pooled Width*Height scratch plane with stale content.
func (s *Scene) getF32() []float32 { return s.f32Pool.Get().([]float32) }

// getMask returns a pooled all-clear cloud mask.
func (s *Scene) getMask() *cloud.Mask {
	m := s.maskPool.Get().(*cloud.Mask)
	clear(m.Bits)
	return m
}

// ReleaseImage returns an image with the scene's geometry to the capture
// pool. Images of any other shape are ignored. The caller must not touch
// the image afterwards.
func (s *Scene) ReleaseImage(im *raster.Image) {
	if im == nil || im.Width != s.cfg.Width || im.Height != s.cfg.Height || len(im.Pix) != len(s.cfg.Bands) {
		return
	}
	s.imgPool.Put(im)
}

// ReleaseCapture recycles a finished capture's image into the scene's
// pools, with its truth and cloud mask when the capture came from
// CaptureImage (a shared sky's are released by ReleaseSky), and clears the
// capture's references so accidental reuse fails fast. Callers that retain
// any of the capture's images must clone them first (every sim.System
// already does).
func (s *Scene) ReleaseCapture(c *Capture) {
	if c == nil {
		return
	}
	s.ReleaseImage(c.Image)
	s.ReleaseSky(c.private)
	c.Image, c.Truth, c.TrueCloud, c.private = nil, nil, nil, nil
}

// ReleaseSky recycles a sky's truth, cloud mask and composite into the
// scene's pools and clears its references. Every capture taken from the
// sky must be finished first: they share its truth and mask. A nil sky is
// ignored.
func (s *Scene) ReleaseSky(k *Sky) {
	if k == nil {
		return
	}
	s.ReleaseImage(k.composite)
	s.ReleaseImage(k.Truth)
	if k.TrueCloud != nil && len(k.TrueCloud.Bits) == s.cfg.Width*s.cfg.Height {
		s.maskPool.Put(k.TrueCloud)
	}
	k.composite, k.Truth, k.TrueCloud = nil, nil, nil
}

// Config returns the scene's configuration.
func (s *Scene) Config() Config { return s.cfg }

// Grid returns the full-resolution tile grid.
func (s *Scene) Grid() raster.TileGrid { return s.grid }

// Bands returns the band set.
func (s *Scene) Bands() []raster.BandInfo { return s.cfg.Bands }

// NumLocations returns the number of locations.
func (s *Scene) NumLocations() int { return len(s.cfg.Locations) }

// Location returns metadata for location loc.
func (s *Scene) Location(loc int) Location { return s.cfg.Locations[loc] }

// noise stream identifiers; each (purpose, location) pair gets a distinct
// stream so draws never collide.
func (s *Scene) stream(loc, purpose int) int64 { return int64(loc)*16 + int64(purpose) }

const (
	purEventCount = iota
	purEventParam
	purCloudCover
	purIllum
	purSnow
	purNoiseSeed
)

// loc lazily builds per-location state. Callers hold s.mu.
func (s *Scene) loc(loc int) *locState {
	if st := s.locs[loc]; st != nil {
		return st
	}
	w, h := s.cfg.Width, s.cfg.Height
	sub := noise.New(s.cfg.Seed ^ (uint64(loc)+1)*0x9e3779b97f4a7c15)
	st := &locState{
		terrain:   buildTerrain(sub, s.cfg.Locations[loc].Content, w, h),
		seasonal:  make([]float32, w*h),
		canvasDay: -1,
	}
	sub2 := noise.New(s.cfg.Seed ^ (uint64(loc)+101)*0xbf58476d1ce4e5b9)
	sub2.FillFBM(st.seasonal, w, h, 3, 2)
	if s.cfg.MicroTexture > 0 {
		st.micro = make([]float32, w*h)
		sub3 := noise.New(s.cfg.Seed ^ (uint64(loc)+211)*0x94d049bb133111eb)
		sub3.FillFBM(st.micro, w, h, float64(w)/3, 2)
	}
	st.base = s.renderBase(st)
	st.canvas = st.base.Clone()
	st.canvasDay = -1
	s.locs[loc] = st
	return st
}

// renderBase composes the static per-band base image from terrain fields.
func (s *Scene) renderBase(st *locState) *raster.Image {
	w, h := s.cfg.Width, s.cfg.Height
	im := raster.New(w, h, s.cfg.Bands)
	for b := range s.cfg.Bands {
		p := s.profiles[b]
		dst := im.Plane(b)
		for i := 0; i < w*h; i++ {
			v := p.base + p.terrainWeight*(st.terrain.elev[i]-0.5)*2*0.5 +
				p.vegWeight*(st.terrain.veg[i]-0.5)*2*0.5
			v -= p.waterDark * st.terrain.wat[i]
			if st.micro != nil {
				v += microGain(s.cfg.Bands[b].Kind) * float32(s.cfg.MicroTexture) * (st.micro[i] - 0.5)
			}
			// Keep base reflectance inside [0.06, 0.88] so the linear
			// illumination model (gain 1±0.1, offset ±0.03) cannot push
			// clear-sky pixels out of [0,1]; clipping would bias the
			// least-squares illumination fit the systems depend on.
			if v < 0.06 {
				v = 0.06
			} else if v > 0.88 {
				v = 0.88
			}
			dst[i] = v
		}
	}
	return im
}

// GroundTruth returns the cloud-free surface image of location loc on the
// given day (day 0 is the simulation epoch). The returned image is owned by
// the caller.
func (s *Scene) GroundTruth(loc, day int) *raster.Image {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.groundTruthLocked(loc, day)
}

func (s *Scene) groundTruthLocked(loc, day int) *raster.Image {
	st := s.loc(loc)
	s.ensureEvents(loc, st, day)
	if day < st.canvasDay {
		// Rewind: rebuild the event canvas from the base image.
		st.canvas = st.base.Clone()
		st.canvasDay = -1
	}
	if day > st.canvasDay {
		for _, e := range st.events {
			if e.day > st.canvasDay && e.day <= day {
				s.applyEvent(st.canvas, e)
			}
		}
		st.canvasDay = day
	}
	out := s.getImage()
	out.CopyFrom(st.canvas)
	s.applySeasonal(out, st, day)
	if s.cfg.Locations[loc].SnowProne {
		s.applySnow(out, st, loc, day)
	}
	out.Clamp()
	return out
}

// microGain scales the static microtexture per band kind: surface-
// observing bands carry the most fine detail.
func microGain(k raster.BandKind) float32 {
	switch k {
	case raster.KindGround:
		return 1.0
	case raster.KindVegetation:
		return 0.8
	case raster.KindInfrared:
		return 0.6
	default:
		return 0.2
	}
}

// applySeasonal adds the annual drift component for the given day.
func (s *Scene) applySeasonal(im *raster.Image, st *locState, day int) {
	phase := math.Sin(2 * math.Pi * float64(day) / 365.0)
	for b := range s.cfg.Bands {
		gain := float32(phase) * s.profiles[b].seasonalGain * float32(s.cfg.Changes.SeasonalAmp)
		if gain == 0 {
			continue
		}
		dst := im.Plane(b)
		for i, v := range st.seasonal {
			dst[i] += gain * (v - 0.5) * 2
		}
	}
}

// winterIntensity peaks mid-winter (day ~15 mod 365) and vanishes in
// summer.
func winterIntensity(day int) float64 {
	c := math.Cos(2 * math.Pi * float64(day-15) / 365.0)
	if c < 0 {
		return 0
	}
	return c * c
}

// applySnow blends daily-drifting snow cover onto snow-prone locations.
// Snow albedo changes day to day (fresh vs. old vs. dirty snow), so snowy
// tiles read as changed against any reference — the paper's explanation
// for locations D and H (Fig 14).
func (s *Scene) applySnow(im *raster.Image, st *locState, loc, day int) {
	wi := winterIntensity(day)
	if wi <= 0 {
		return
	}
	snowline := float32(0.92 - 0.55*wi)
	jit := s.cfg.Changes.SnowAlbedoJitter
	albedo := float32(1 - jit + 2*jit*s.src.Uniform(s.stream(loc, purSnow), int64(day)))
	for b := range s.cfg.Bands {
		p := s.profiles[b]
		if !p.snowShows {
			continue
		}
		dst := im.Plane(b)
		snowVal := p.snowValue * albedo
		for i, e := range st.terrain.elev {
			if e <= snowline {
				continue
			}
			cover := smooth01((e - snowline) / 0.06)
			dst[i] = dst[i]*(1-cover) + snowVal*cover
		}
	}
}

// CloudCoverageTarget returns the sampled coverage level for (loc, day)
// without rendering the cloud field. Orbit analytics (Fig 5) use it.
func (s *Scene) CloudCoverageTarget(loc, day int) float64 {
	u := s.src.Uniform(s.stream(loc, purCloudCover), int64(day)*4)
	r := s.cfg.Clouds
	if u < r.ClearProb {
		return r.ClearMax * s.src.Uniform(s.stream(loc, purCloudCover), int64(day)*4+1)
	}
	u2 := s.src.Uniform(s.stream(loc, purCloudCover), int64(day)*4+2)
	return r.CloudyMin + (1-r.CloudyMin)*math.Pow(u2, r.CloudyExp)
}

// cloudField renders the optical-thickness plane tau in [0,1] for
// (loc, day) hitting the day's coverage target, plus the truth mask
// (tau > 0.15).
// The returned tau plane comes from the scene's scratch pool; Sky returns
// it to the pool once the cloud blend is done.
func (s *Scene) cloudField(loc, day int) ([]float32, *cloud.Mask, float64) {
	w, h := s.cfg.Width, s.cfg.Height
	target := s.CloudCoverageTarget(loc, day)
	tau := s.getF32()
	if target < 0.002 {
		clear(tau)
		return tau, s.getMask(), 0
	}
	field := s.getF32()
	defer s.f32Pool.Put(field)
	sub := noise.New(s.cfg.Seed ^ uint64(loc)*0x9e3779b97f4a7c15 ^ uint64(day)*0x94d049bb133111eb)
	sub.FillFBM(field, w, h, 4, 4)
	thresh := quantileApprox(field, 1-target)
	mask := s.getMask()
	covered := 0
	// Optical thickness ramps from 0 at the threshold so near-clear days
	// stay genuinely clear; the ramp itself is the thin-haze fringe that
	// separates the accurate detector from the cheap one.
	const edge = 0.05
	for i, v := range field {
		t := smooth01((v - thresh) / edge)
		tau[i] = t
		if t > 0.15 {
			mask.Bits[i] = true
			covered++
		}
	}
	return tau, mask, float64(covered) / float64(w*h)
}

// quantileApprox returns the approximate q-quantile of vals via a
// 1024-bin histogram over [0,1].
func quantileApprox(vals []float32, q float64) float32 {
	const bins = 1024
	var hist [bins]int
	for _, v := range vals {
		idx := int(v * bins)
		if idx < 0 {
			idx = 0
		} else if idx >= bins {
			idx = bins - 1
		}
		hist[idx]++
	}
	want := int(q * float64(len(vals)))
	acc := 0
	for i, c := range hist {
		acc += c
		if acc >= want {
			return (float32(i) + 0.5) / bins
		}
	}
	return 1
}

// IllumModel returns the illumination model a given capture experiences.
func (s *Scene) IllumModel(loc, day, sat int) illum.Model {
	k := int64(day)*4096 + int64(sat)*2
	g := 1 - s.cfg.IllumGainJitter + 2*s.cfg.IllumGainJitter*s.src.Uniform(s.stream(loc, purIllum), k)
	o := -s.cfg.IllumOffsetJitter + 2*s.cfg.IllumOffsetJitter*s.src.Uniform(s.stream(loc, purIllum), k+1)
	return illum.Model{Gain: g, Offset: o}
}

// Sky synthesises everything (loc, day) contributes to its captures: the
// ground truth, the cloud field and the pre-illumination composite. The
// caller releases it with ReleaseSky after its last capture.
func (s *Scene) Sky(loc, day int) *Sky {
	s.mu.Lock()
	truth := s.groundTruthLocked(loc, day)
	s.mu.Unlock()

	tau, mask, coverage := s.cloudField(loc, day)
	im := s.getImage()
	im.CopyFrom(truth)
	for b := range s.cfg.Bands {
		cv := s.profiles[b].cloudValue
		dst := im.Plane(b)
		for i, t := range tau {
			if t > 0 {
				dst[i] = dst[i]*(1-t) + cv*t
			}
		}
	}
	s.f32Pool.Put(tau)
	if s.cfg.AtmosVariability > 0 {
		s.applyAtmosphere(im, loc, day)
	}
	return &Sky{
		Loc: loc, Day: day,
		Truth: truth, TrueCloud: mask, Coverage: coverage,
		scene: s, composite: im,
	}
}

// Capture simulates satellite sat photographing the sky: a copy of the
// composite under sat's illumination and sensor noise, clamped to [0,1].
// The capture shares the sky's Truth and TrueCloud; release it with
// Scene.ReleaseCapture before releasing the sky.
func (k *Sky) Capture(sat int) *Capture {
	im := k.scene.getImage()
	im.CopyFrom(k.composite)
	return k.expose(im, sat)
}

// expose applies sat's illumination, sensor noise and clamp to im (the
// sky's composite or a copy of it) and wraps it as sat's capture.
func (k *Sky) expose(im *raster.Image, sat int) *Capture {
	s := k.scene
	model := s.IllumModel(k.Loc, k.Day, sat)
	for b := range s.cfg.Bands {
		model.Apply(im.Plane(b))
	}
	if s.cfg.SensorNoise > 0 {
		s.addSensorNoise(im, k.Loc, k.Day, sat)
	}
	im.Clamp()
	return &Capture{
		Loc: k.Loc, Day: k.Day, Sat: sat,
		Image: im, TrueCloud: k.TrueCloud, Truth: k.Truth,
		TrueIllum: model, Coverage: k.Coverage,
	}
}

// CaptureImage simulates satellite sat photographing loc on day. It is
// Sky(loc, day).Capture(sat) with the capture owning its sky: the image
// is the sky's composite itself, and ReleaseCapture releases the rest.
func (s *Scene) CaptureImage(loc, day, sat int) *Capture {
	k := s.Sky(loc, day)
	c := k.expose(k.composite, sat)
	k.composite = nil
	c.private = k
	return c
}

// applyAtmosphere adds the day's atmospheric pattern (water vapor, haze
// precursors) to each band according to its atmosphere weight. The pattern
// belongs to the capture, not the ground truth: it is what air-observing
// bands exist to measure, and it is why reference-based encoding saves
// little on them (Fig 14).
func (s *Scene) applyAtmosphere(im *raster.Image, loc, day int) {
	w, h := s.cfg.Width, s.cfg.Height
	field := s.getF32()
	defer s.f32Pool.Put(field)
	sub := noise.New(s.cfg.Seed ^ uint64(loc)*0xd6e8feb86659fd93 ^ uint64(day)*0xa0761d6478bd642f)
	sub.FillFBM(field, w, h, 2, 2)
	amp := float32(s.cfg.AtmosVariability)
	for b := range s.cfg.Bands {
		wgt := s.profiles[b].atmosWeight * amp
		if wgt == 0 {
			continue
		}
		dst := im.Plane(b)
		for i, v := range field {
			dst[i] += wgt * (v - 0.5) * 2
		}
	}
}

// addSensorNoise perturbs every pixel with bounded uniform noise from a
// fast deterministic per-capture stream.
func (s *Scene) addSensorNoise(im *raster.Image, loc, day, sat int) {
	seed := uint64(s.src.Uniform(s.stream(loc, purNoiseSeed), int64(day)*256+int64(sat)) * float64(1<<62))
	state := seed | 1
	amp := float32(s.cfg.SensorNoise)
	for b := range im.Pix {
		p := im.Pix[b]
		for i := range p {
			// xorshift64* — cheap, deterministic, good enough for noise.
			state ^= state >> 12
			state ^= state << 25
			state ^= state >> 27
			u := float32(state*0x2545F4914F6CDD1D>>40) / float32(1<<24)
			p[i] += amp * (2*u - 1)
		}
	}
}
