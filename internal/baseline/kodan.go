// Package baseline implements the paper's two comparison systems (§6.1):
// Kodan [37], which discards cloudy data with an expensive on-board
// detector and downloads every remaining tile, and SatRoI [61], which runs
// reference-based encoding against a fixed on-board reference at full
// resolution.
package baseline

import (
	"time"

	"earthplus/internal/cloud"
	"earthplus/internal/codec"
	"earthplus/internal/raster"
	"earthplus/internal/sat"
	"earthplus/internal/scene"
	"earthplus/internal/sim"
	"earthplus/internal/station"
)

// Kodan drops low-value cloudy data and downloads all non-cloudy areas
// (§6.1). It pays for an accurate on-board cloud detector — the runtime
// cost Fig 16 charges it for — but never exploits cross-capture
// redundancy.
//
// OnCapture is safe for concurrent calls on distinct locations (the
// sharded engine's contract): the detector is stateless and all mutable
// state lives in the ground segment, which is sharded and locked per
// location.
type Kodan struct {
	env      *sim.Env
	gamma    float64
	opts     codec.Options
	detector *cloud.TemporalDetector
	dropCov  float64
	tileFrac float64
	ground   *station.Ground
}

var _ sim.System = (*Kodan)(nil)

// NewKodan builds the Kodan baseline with the paper's drop threshold.
func NewKodan(env *sim.Env, gammaBPP float64, opts codec.Options) (*Kodan, error) {
	bands := env.Scene.Bands()
	ground, err := station.NewGround(station.Config{
		Bands:       bands,
		Grid:        env.Scene.Grid(),
		Downsample:  4,
		Storage:     sat.Storage{BPP: 1}, // unused: Kodan never uplinks references
		MaxRefCloud: -1,
	}, env.Scene.NumLocations())
	if err != nil {
		return nil, err
	}
	return &Kodan{
		env:      env,
		gamma:    gammaBPP,
		opts:     opts,
		detector: cloud.DefaultTemporal(bands),
		dropCov:  0.5,
		tileFrac: 0.5,
		ground:   ground,
	}, nil
}

// Name implements sim.System.
func (k *Kodan) Name() string { return "Kodan" }

// Bootstrap implements sim.System.
func (k *Kodan) Bootstrap(cap *scene.Capture) error {
	_, err := k.ground.SeedBootstrap(cap.Loc, cap.Day, cap.Truth, nil)
	return err
}

// OnCapture implements sim.System: accurate cloud filtering, then download
// of every non-cloudy tile at γ bits per pixel.
func (k *Kodan) OnCapture(cap *scene.Capture) (sim.Outcome, error) {
	grid := k.env.Scene.Grid()
	out := sim.Outcome{TotalTiles: grid.NumTiles(), RefAge: -1}

	// Kodan's expensive on-board detector: reference-aware, using the
	// clear content Kodan already stores on board (it keeps every clear
	// capture awaiting download, so the latest archive state is on hand).
	tCloud := time.Now()
	mask := k.detector.DetectWithReference(cap.Image, k.ground.Archive(cap.Loc))
	out.CloudSec = time.Since(tCloud).Seconds()
	if mask.Coverage() > k.dropCov {
		out.Dropped = true
		return out, nil
	}
	clearTiles := mask.TileMask(grid, k.tileFrac)
	clearTiles.Invert()
	roi := make([]*raster.TileMask, len(k.env.Scene.Bands()))
	for b := range roi {
		roi[b] = clearTiles
	}
	tEnc := time.Now()
	frame, err := sat.EncodeROI(cap.Image, roi, k.gamma, k.opts)
	if err != nil {
		return sim.Outcome{}, err
	}
	out.EncodeSec = time.Since(tEnc).Seconds()
	out.PerBandBytes, out.DownBytes, out.DownTilesPerBand, err = sat.DownlinkCharge(frame, roi)
	if err != nil {
		return sim.Outcome{}, err
	}

	if err := k.ground.ApplyDownload(cap.Loc, cap.Day, frame, roi, nil); err != nil {
		return sim.Outcome{}, err
	}
	out.Recon = k.ground.Recon(cap.Loc)
	return out, nil
}

// OnDayEnd implements sim.System; Kodan uses no uplink.
func (k *Kodan) OnDayEnd(int) (int64, error) { return 0, nil }
