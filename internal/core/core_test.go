package core

import (
	"bytes"
	"testing"

	"earthplus/internal/link"
	"earthplus/internal/orbit"
	"earthplus/internal/registry"
	"earthplus/internal/scene"
	"earthplus/internal/sim"
)

func planetEnv() *sim.Env {
	return &sim.Env{
		Scene:             scene.New(scene.LargeConstellation(scene.Quick)),
		Orbit:             orbit.Constellation{Satellites: 8, RevisitDays: 8},
		Downlink:          link.Budget{Bps: 200e6, SecondsPerContact: 600, ContactsPerDay: 7},
		UplinkBytesPerDay: 0, // unlimited unless a test constrains it
	}
}

func TestNewRejectsBadDownsample(t *testing.T) {
	cfg := DefaultConfig()
	cfg.RefDownsample = 5 // does not divide tile 16
	if _, err := New(planetEnv(), cfg); err == nil {
		t.Fatal("expected downsample error")
	}
}

func TestEarthPlusEndToEnd(t *testing.T) {
	env := planetEnv()
	sys, err := New(env, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(env, sys, 0, 40, 80)
	if err != nil {
		t.Fatal(err)
	}
	s := sim.Summarize(res, env.Downlink)
	if s.Captures < 30 {
		t.Fatalf("only %d captures in 40 days with daily visits", s.Captures)
	}
	if s.Captures == s.Dropped {
		t.Fatal("every capture dropped")
	}
	// The natural Planet cloud regime is heavily cloudy; surviving
	// captures often carry haze, so the mean sits below the sunny-sampled
	// figure (see TestEarthPlusOnSampledDataset).
	if s.MeanPSNR < 26 {
		t.Fatalf("mean PSNR = %.1f dB, want >= 26", s.MeanPSNR)
	}
	if s.MeanTileFrac > 0.85 {
		t.Fatalf("mean downloaded-tile fraction = %.2f", s.MeanTileFrac)
	}
	if s.MeanDownBytes <= 0 {
		t.Fatal("no bytes downloaded")
	}
	// With daily constellation visits and ~25% clear days, references
	// should stay young (paper: 4.2 days average on Planet).
	if s.MeanRefAge <= 0 || s.MeanRefAge > 15 {
		t.Fatalf("mean reference age = %.1f days", s.MeanRefAge)
	}
	if s.MeanUpBytesPerDay <= 0 {
		t.Fatal("Earth+ never used the uplink")
	}
}

// TestEarthPlusOnSampledDataset mirrors the paper's Planet evaluation
// conditions (images sampled below 5% cloud coverage): fresh references,
// a small downloaded-tile fraction, and high quality.
func TestEarthPlusOnSampledDataset(t *testing.T) {
	env := planetEnv()
	env.Scene = scene.New(scene.LargeConstellationSampled(scene.Quick))
	sys, err := New(env, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(env, sys, 0, 40, 100)
	if err != nil {
		t.Fatal(err)
	}
	s := sim.Summarize(res, env.Downlink)
	if s.MeanPSNR < 34 {
		t.Fatalf("sampled mean PSNR = %.1f dB, want >= 34", s.MeanPSNR)
	}
	if s.MeanTileFrac > 0.45 {
		t.Fatalf("sampled tile fraction = %.2f, want < 0.45 (paper: ~20%% changed)", s.MeanTileFrac)
	}
	if s.MeanRefAge > 6 {
		t.Fatalf("sampled mean reference age = %.1f days, want a few days (paper: 4.2)", s.MeanRefAge)
	}
}

func TestGuaranteedDownloadHappens(t *testing.T) {
	env := planetEnv()
	cfg := DefaultConfig()
	cfg.GuaranteePeriodDays = 10
	sys, err := New(env, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(env, sys, 0, 40, 90)
	if err != nil {
		t.Fatal(err)
	}
	guaranteed := 0
	for _, r := range res.Records {
		if r.Guaranteed {
			guaranteed++
			if r.DownTileFrac < 0.5 {
				t.Fatalf("guaranteed download only carried %.2f of tiles", r.DownTileFrac)
			}
		}
	}
	if guaranteed == 0 {
		t.Fatal("no guaranteed download in 50 days with a 10-day period")
	}
}

func TestUplinkBudgetRespected(t *testing.T) {
	env := planetEnv()
	env.UplinkBytesPerDay = 2000
	sys, err := New(env, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(env, sys, 0, 40, 70)
	if err != nil {
		t.Fatal(err)
	}
	for day, up := range res.UpBytesByDay {
		if up > 2000*int64(env.Orbit.Satellites) {
			t.Fatalf("day %d uplink %d exceeds per-satellite budget x fleet", day, up)
		}
	}
}

func TestStarvedUplinkAgesReferences(t *testing.T) {
	env := planetEnv()
	rich, err := New(env, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	resRich, err := sim.Run(env, rich, 0, 40, 80)
	if err != nil {
		t.Fatal(err)
	}
	envPoor := planetEnv()
	envPoor.UplinkBytesPerDay = 1 // effectively no reference refreshes
	poor, err := New(envPoor, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	resPoor, err := sim.Run(envPoor, poor, 0, 40, 80)
	if err != nil {
		t.Fatal(err)
	}
	sRich := sim.Summarize(resRich, env.Downlink)
	sPoor := sim.Summarize(resPoor, env.Downlink)
	if sPoor.MeanRefAge <= sRich.MeanRefAge {
		t.Fatalf("starved uplink ref age %.1f should exceed rich %.1f", sPoor.MeanRefAge, sRich.MeanRefAge)
	}
	if sPoor.MeanTileFrac <= sRich.MeanTileFrac {
		t.Fatalf("starved uplink tile frac %.2f should exceed rich %.2f", sPoor.MeanTileFrac, sRich.MeanTileFrac)
	}
}

func TestRefAgeTracksConstellationFreshness(t *testing.T) {
	env := planetEnv()
	sys, err := New(env, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(env, sys, 0, 40, 100)
	if err != nil {
		t.Fatal(err)
	}
	// Some reference refresh must have happened after bootstrap: max age
	// should stay far below the simulated span.
	maxAge := 0
	for _, r := range res.Records {
		if r.RefAge > maxAge {
			maxAge = r.RefAge
		}
	}
	if maxAge >= 55 {
		t.Fatalf("references never refreshed: max age %d", maxAge)
	}
}

func TestRefCacheBytesPositive(t *testing.T) {
	env := planetEnv()
	sys, err := New(env, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Run(env, sys, 0, 40, 50); err != nil {
		t.Fatal(err)
	}
	if sys.RefCacheBytes(0) <= 0 {
		t.Fatal("empty reference cache after run")
	}
	if sys.Ground() == nil {
		t.Fatal("no ground segment")
	}
	if day := sys.Ground().BestRefDay(0); day < 0 {
		t.Fatal("ground has no reference after run")
	}
}

// Two identical runs must write byte-identical traces — the whole stack
// (scene, codec, detection, uplink packing) is deterministic.
func TestRunDeterminism(t *testing.T) {
	run := func() *sim.Result {
		env := planetEnv()
		sys, err := New(env, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		res, err := sim.Run(env, sys, 0, 40, 70)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, errA := sim.TraceBytes(run())
	b, errB := sim.TraceBytes(run())
	if errA != nil || errB != nil || !bytes.Equal(a, b) {
		t.Fatalf("two identical runs wrote different traces (errors %v, %v)", errA, errB)
	}
}

// TestUnlimitedStorageMatchesDefault pins the compatibility contract of
// the storage model: the default budget (Table 1's 360 GB, never binding
// at modeled scene scale) and an explicitly unlimited store produce
// byte-identical record streams — bounding the cache changes nothing
// until the budget actually binds.
func TestUnlimitedStorageMatchesDefault(t *testing.T) {
	run := func(cfg Config) *sim.Result {
		t.Helper()
		env := planetEnv()
		sys, err := New(env, cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sim.Run(env, sys, 0, 40, 60)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	def := run(DefaultConfig())
	unlimited := DefaultConfig()
	unlimited.StorageBytes = -1
	a, errA := sim.TraceBytes(def)
	b, errB := sim.TraceBytes(run(unlimited))
	if errA != nil || errB != nil || !bytes.Equal(a, b) {
		t.Fatalf("explicit unlimited storage diverged from the default budget (errors %v, %v)", errA, errB)
	}
	for _, r := range def.Records {
		if r.RefMiss {
			t.Fatalf("unbounded run missed a reference at day %d loc %d", r.Day, r.Loc)
		}
	}
}

// TestBoundedStorageMissFallback drives a budget that holds only part of
// the reference working set and checks the whole miss path: evictions
// happen, the footprint respects the budget, missed captures fall back to
// reference-free encoding (downloading more than the changed-tile norm),
// and the ground's re-seeding keeps the run alive end to end.
func TestBoundedStorageMissFallback(t *testing.T) {
	// Six rich-content locations visited every 4 days by 2 satellites: one
	// detection-resolution reference is (192/4)^2 * 13 bands * 2 bytes =
	// 59904 bytes, so a 3-reference budget holds half the working set and
	// the ~4-location lookahead re-seeding overflows it every cycle —
	// hits and misses interleave.
	sceneCfg := scene.RichContent(scene.Quick)
	sceneCfg.Locations = sceneCfg.Locations[:6]
	env := &sim.Env{
		Scene:    scene.New(sceneCfg),
		Orbit:    orbit.Constellation{Satellites: 2, RevisitDays: 4},
		Downlink: link.Budget{Bps: 200e6, SecondsPerContact: 600, ContactsPerDay: 7},
	}
	cfg := DefaultConfig()
	cfg.StorageBytes = 3 * 59904
	sys, err := New(env, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(env, sys, 0, 40, 60)
	if err != nil {
		t.Fatal(err)
	}
	ev, misses := sys.StorageStats()
	if ev == 0 || misses == 0 {
		t.Fatalf("budget not binding: %d evictions, %d misses", ev, misses)
	}
	for id := 0; id < env.Orbit.Satellites; id++ {
		if got := sys.RefCacheBytes(id); got > cfg.StorageBytes {
			t.Fatalf("satellite %d cache footprint %d exceeds budget %d", id, got, cfg.StorageBytes)
		}
	}
	missRecs, hitBytes, missBytes, hits := 0, 0.0, 0.0, 0
	for _, r := range res.Records {
		if r.Dropped {
			continue
		}
		if r.RefMiss {
			missRecs++
			missBytes += float64(r.DownBytes)
			if r.RefAge != -1 {
				t.Fatalf("miss record day %d loc %d carries reference age %d", r.Day, r.Loc, r.RefAge)
			}
		} else {
			hits++
			hitBytes += float64(r.DownBytes)
		}
	}
	if missRecs == 0 || hits == 0 {
		t.Fatalf("want a mix of hits and misses, got %d hits / %d misses", hits, missRecs)
	}
	// Reference-free fallbacks download every non-cloudy tile, so the
	// mean missed-capture payload must exceed the mean hit payload.
	if missBytes/float64(missRecs) <= hitBytes/float64(hits) {
		t.Fatalf("miss fallback mean bytes %.0f not above hit mean %.0f",
			missBytes/float64(missRecs), hitBytes/float64(hits))
	}
}

// TestCompressedStorageHoldsMoreAndStaysCoherent runs the bounded
// miss-fallback scenario with ref_compression on at the SAME budget that
// thrashes the raw store: the compressed store (entries at the uplink's
// encoded rate instead of raw 16 bits/sample) must fit strictly more of
// the working set — fewer misses — while the decode-on-visit path serves
// every hit.
func TestCompressedStorageHoldsMoreAndStaysCoherent(t *testing.T) {
	run := func(compress bool) (*sim.Result, *System) {
		sceneCfg := scene.RichContent(scene.Quick)
		sceneCfg.Locations = sceneCfg.Locations[:6]
		env := &sim.Env{
			Scene:    scene.New(sceneCfg),
			Orbit:    orbit.Constellation{Satellites: 2, RevisitDays: 4},
			Downlink: link.Budget{Bps: 200e6, SecondsPerContact: 600, ContactsPerDay: 7},
		}
		cfg := DefaultConfig()
		cfg.StorageBytes = 3 * 59904 // holds 3/6 raw references per satellite
		cfg.RefCompression = compress
		sys, err := New(env, cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sim.Run(env, sys, 0, 40, 60)
		if err != nil {
			t.Fatal(err)
		}
		return res, sys
	}
	resRaw, sysRaw := run(false)
	resComp, sysComp := run(true)
	_, rawMisses := sysRaw.StorageStats()
	_, compMisses := sysComp.StorageStats()
	if rawMisses == 0 {
		t.Fatal("budget not binding for the raw store; the comparison proves nothing")
	}
	if compMisses >= rawMisses {
		t.Fatalf("compressed store missed %d >= raw %d at the same budget", compMisses, rawMisses)
	}
	rawLocs, rawBytes := sysRaw.ResidentRefs()
	compLocs, compBytes := sysComp.ResidentRefs()
	if compLocs <= rawLocs {
		t.Fatalf("compressed store resident %d <= raw %d at the same budget", compLocs, rawLocs)
	}
	// Real encoded footprints sit well under the raw-rate accounting.
	if rawLocs > 0 && compLocs > 0 {
		rawPerLoc := float64(rawBytes) / float64(rawLocs)
		compPerLoc := float64(compBytes) / float64(compLocs)
		if compPerLoc*2 > rawPerLoc {
			t.Fatalf("compressed entry %.0f B not well below raw %.0f B", compPerLoc, rawPerLoc)
		}
	}
	decodes, _ := sysComp.DecodeStats()
	if decodes == 0 {
		t.Fatal("compressed run never decoded a reference")
	}
	// The decode-on-visit path must actually serve hits: records that are
	// not misses carry a reference age like the raw run's.
	hits := 0
	for _, r := range resComp.Records {
		if !r.Dropped && !r.RefMiss {
			hits++
			if r.RefAge < 0 {
				t.Fatalf("hit record day %d loc %d has no reference age", r.Day, r.Loc)
			}
		}
	}
	if hits == 0 {
		t.Fatal("compressed run never hit a reference")
	}
	_ = resRaw
}

// TestDroppedCapturesDecodeNoReference pins where a compressed store's
// frames are decoded: Visit hands out the stored frame, and the pipeline
// decodes it only for a capture that survives the cloud drop. The fleet
// therefore decodes once per kept capture that hit its store, never for a
// capture dropped for cloud, and a raw store decodes nothing. Captures run
// on four workers, so under -race this also covers the decode counters.
func TestDroppedCapturesDecodeNoReference(t *testing.T) {
	for _, row := range []struct {
		name     string
		compress bool
	}{{"compressed", true}, {"raw", false}} {
		t.Run(row.name, func(t *testing.T) {
			env := barrierEnv(64, 16, 4, 6<<10)
			cfg := DefaultConfig()
			cfg.RefCompression = row.compress
			sys, err := New(env, cfg)
			if err != nil {
				t.Fatal(err)
			}
			res, err := sim.Run(env, sys, 0, 20, 40)
			if err != nil {
				t.Fatal(err)
			}
			var kept, droppedHits int64
			for _, r := range res.Records {
				switch {
				case r.RefMiss:
				case r.Dropped:
					droppedHits++
				default:
					kept++
				}
			}
			decodes, _ := sys.DecodeStats()
			if !row.compress {
				if decodes != 0 || sys.DecodeWall() != 0 {
					t.Fatalf("raw store decoded %d references in %v", decodes, sys.DecodeWall())
				}
				return
			}
			if kept == 0 || droppedHits == 0 {
				t.Fatalf("want kept and dropped captures that hit the store, got %d kept, %d dropped", kept, droppedHits)
			}
			if decodes != kept {
				t.Fatalf("decoded %d references for %d kept hits (%d dropped hits)", decodes, kept, droppedHits)
			}
			t.Logf("%d decodes for %d kept hits; %d dropped hits decoded nothing", decodes, kept, droppedHits)
			if sys.DecodeWall() <= 0 {
				t.Fatal("decodes ran but no decode time was recorded")
			}
		})
	}
}

// TestRefCompressionKnobContract pins the registry surface: "off" (and
// absence) is byte-identical to the default raw store, and anything but
// on/off is rejected loudly.
func TestRefCompressionKnobContract(t *testing.T) {
	run := func(params map[string]string) ([]byte, error) {
		t.Helper()
		env := planetEnv()
		sys, err := registry.New(SystemName, env, registry.Spec{StrParams: params})
		if err != nil {
			t.Fatal(err)
		}
		res, err := sim.Run(env, sys, 0, 40, 55)
		if err != nil {
			t.Fatal(err)
		}
		return sim.TraceBytes(res)
	}
	def, errA := run(nil)
	off, errB := run(map[string]string{"ref_compression": "off"})
	if errA != nil || errB != nil || !bytes.Equal(def, off) {
		t.Fatalf("explicit ref_compression=off diverged from the default (errors %v, %v)", errA, errB)
	}
	if _, err := registry.New(SystemName, planetEnv(), registry.Spec{
		StrParams: map[string]string{"ref_compression": "maybe"},
	}); err == nil {
		t.Fatal("ref_compression=maybe accepted")
	}
}
