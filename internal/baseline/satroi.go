package baseline

import (
	"fmt"
	"time"

	"earthplus/internal/change"
	"earthplus/internal/cloud"
	"earthplus/internal/codec"
	"earthplus/internal/raster"
	"earthplus/internal/sat"
	"earthplus/internal/scene"
	"earthplus/internal/sim"
	"earthplus/internal/station"
)

// SatRoI is the reference-based baseline [61]: it keeps a fixed full-
// resolution reference image on board (set once, never refreshed — there
// is no uplink path for updates) and downloads tiles that changed against
// it. As the reference ages, nearly everything reads as changed (§3),
// which is exactly the failure mode Earth+'s constellation-wide refresh
// removes.
//
// The reference store is capacity-bounded like Earth+'s (the storage-sweep
// experiment compares both under the same budget): full-resolution
// references cost sat.RawBitsPerSample bits per sample, and because SatRoI
// has no uplink path, an evicted reference is gone for good — every later
// capture of that location falls back to a reference-free full download.
//
// SatRoI deliberately stays RAW — it takes no ref_compression knob (the
// registry rejects it). The asymmetry is the point of the comparison:
// Earth+'s compressed on-board store leans on its ground loop — lossless
// re-encode on install, 16-bit-coherent mirrors, re-seeding over the
// uplink when the budget still overflows — and SatRoI has none of that
// machinery, so granting its fixed store the same compressed accounting
// would credit it with infrastructure the baseline [61] does not have.
//
// OnCapture is safe for concurrent calls on distinct locations (the
// sharded engine's contract): the reference store locks internally and is
// only mutated at bootstrap, lastGuar is a per-location slot touched only
// by its own location's ordered visit sequence, and the ground segment
// locks per location.
type SatRoI struct {
	gamma float64
	opts  codec.Options
	// pipeline is Earth+'s on-board pipeline at downsample 1: cheap cloud
	// removal, illumination fit and change detection, all at full
	// resolution — SatRoI's change-detection cost in Fig 16.
	pipeline *sat.Pipeline
	// guaranteeDays matches Earth+'s periodic full download so the two
	// reference-based systems share the same quality floor mechanism.
	guaranteeDays int
	ground        *station.Ground
	// refs holds the fixed full-res reference per location, bounded by the
	// configured storage budget (the model shares one store fleet-wide).
	refs     *sat.RefCache
	lastGuar []int
}

var _ sim.System = (*SatRoI)(nil)

// SatRoIConfig parameterises the baseline beyond γ and the codec.
type SatRoIConfig struct {
	// StorageBytes caps the on-board reference store (0 = the Table 1
	// default 360 GB, negative = unlimited), accounted at 16 bits per
	// full-resolution sample.
	StorageBytes int64
	// EvictPolicy is the store's eviction order ("lru" | "schedule";
	// empty = lru). The schedule policy predicts fleet-wide revisits.
	EvictPolicy string
}

// NewSatRoI builds the SatRoI baseline with the default (Table 1) storage
// model.
func NewSatRoI(env *sim.Env, gammaBPP float64, opts codec.Options) (*SatRoI, error) {
	return NewSatRoIWithConfig(env, gammaBPP, opts, SatRoIConfig{})
}

// NewSatRoIWithConfig builds the SatRoI baseline with an explicit storage
// model.
func NewSatRoIWithConfig(env *sim.Env, gammaBPP float64, opts codec.Options, sc SatRoIConfig) (*SatRoI, error) {
	bands := env.Scene.Bands()
	n := env.Scene.NumLocations()
	ground, err := station.NewGround(station.Config{
		Bands:       bands,
		Grid:        env.Scene.Grid(),
		Downsample:  4,
		Storage:     sat.Storage{BPP: 1}, // unused: SatRoI never uplinks references
		MaxRefCloud: -1,
	}, n)
	if err != nil {
		return nil, err
	}
	refs, err := sat.NewBoundedRefCache(sat.CacheConfig{
		BudgetBytes: sat.ResolveBudget(sc.StorageBytes),
		Policy:      sat.Policy(sc.EvictPolicy),
		NextVisit:   env.Orbit.NextVisitAny,
	})
	if err != nil {
		return nil, fmt.Errorf("baseline: %w", err)
	}
	lastGuar := make([]int, n)
	for i := range lastGuar {
		lastGuar[i] = -1 << 30
	}
	return &SatRoI{
		gamma: gammaBPP,
		opts:  opts,
		pipeline: &sat.Pipeline{
			Bands:         bands,
			Grid:          env.Scene.Grid(),
			Downsample:    1,
			CloudDet:      cloud.DefaultCheap(bands),
			Theta:         change.FullResThreshold,
			DropCoverage:  0.5,
			CloudTileFrac: 0.5,
		},
		guaranteeDays: 30,
		ground:        ground,
		refs:          refs,
		lastGuar:      lastGuar,
	}, nil
}

// StorageStats reports the reference store's capacity evictions and
// lookup misses.
func (s *SatRoI) StorageStats() (evictions, misses int64) { return s.refs.Stats() }

// ResidentRefs reports the store's resident reference count and accounted
// footprint, for the storage sweep's residency series.
func (s *SatRoI) ResidentRefs() (locations int, bytes int64) {
	return s.refs.Len(), s.refs.FootprintBytes()
}

// Name implements sim.System.
func (s *SatRoI) Name() string { return "SatRoI" }

// Bootstrap implements sim.System: the bootstrap capture becomes the fixed
// on-board reference. With a bound store the install may evict other
// references — there is no uplink to re-seed them, so they stay gone.
func (s *SatRoI) Bootstrap(cap *scene.Capture) error {
	if _, err := s.ground.SeedBootstrap(cap.Loc, cap.Day, cap.Truth, nil); err != nil {
		return err
	}
	s.refs.Put(cap.Loc, cap.Truth.Clone(), cap.Day)
	s.lastGuar[cap.Loc] = cap.Day
	return nil
}

// OnCapture implements sim.System: cheap cloud removal, illumination
// alignment and full-resolution change detection against the fixed
// reference.
func (s *SatRoI) OnCapture(cap *scene.Capture) (sim.Outcome, error) {
	out := sim.Outcome{TotalTiles: s.pipeline.Grid.NumTiles(), RefAge: -1}
	ref, refDay := s.refs.Visit(cap.Loc, cap.Day)
	if ref != nil {
		out.RefAge = cap.Day - refDay
	} else {
		out.RefMiss = true
	}
	res, err := s.pipeline.Process(cap.Image, ref)
	if err != nil {
		return sim.Outcome{}, err
	}
	out.CloudSec, out.ChangeSec = res.CloudSec, res.ChangeSec
	if res.Dropped {
		out.Dropped = true
		return out, nil
	}
	nonCloud := res.CloudTiles.Clone()
	nonCloud.Invert()

	work := cap.Image.Clone()
	roi := make([]*raster.TileMask, len(s.pipeline.Bands))
	guaranteed := cap.Day-s.lastGuar[cap.Loc] >= s.guaranteeDays && res.CloudCover <= 0.05
	if ref == nil || guaranteed {
		for b := range roi {
			roi[b] = nonCloud
		}
		if guaranteed {
			s.lastGuar[cap.Loc] = cap.Day
			out.Guaranteed = true
		}
	} else {
		// Changed tiles go down normalised into the reference's
		// illumination; a guaranteed download keeps the capture's own.
		for b := range roi {
			res.Illum[b].Normalize(work.Plane(b))
			roi[b] = res.Changed[b]
		}
	}

	tEnc := time.Now()
	frame, err := sat.EncodeROI(work, roi, s.gamma, s.opts)
	if err != nil {
		return sim.Outcome{}, err
	}
	out.EncodeSec = time.Since(tEnc).Seconds()
	out.PerBandBytes, out.DownBytes, out.DownTilesPerBand, err = sat.DownlinkCharge(frame, roi)
	if err != nil {
		return sim.Outcome{}, err
	}

	if err := s.ground.ApplyDownload(cap.Loc, cap.Day, frame, roi, nil); err != nil {
		return sim.Outcome{}, err
	}
	out.Recon = s.ground.Recon(cap.Loc)
	return out, nil
}

// OnDayEnd implements sim.System; SatRoI uses no uplink.
func (s *SatRoI) OnDayEnd(int) (int64, error) { return 0, nil }
