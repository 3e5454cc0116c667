package baseline

import (
	"sync/atomic"
	"testing"

	"earthplus/internal/codec"
	"earthplus/internal/core"
	"earthplus/internal/link"
	"earthplus/internal/orbit"
	"earthplus/internal/sat"
	"earthplus/internal/scene"
	"earthplus/internal/sim"
)

func sampledEnv() *sim.Env {
	return &sim.Env{
		Scene:    scene.New(scene.LargeConstellationSampled(scene.Quick)),
		Orbit:    orbit.Constellation{Satellites: 8, RevisitDays: 8},
		Downlink: link.Budget{Bps: 200e6, SecondsPerContact: 600, ContactsPerDay: 7},
	}
}

// timedKodan counts kept captures whose Outcome lacks the cloud
// detector's wall time. Captures of distinct locations run concurrently.
type timedKodan struct {
	*Kodan
	untimed atomic.Int64
}

func (k *timedKodan) OnCapture(cap *scene.Capture) (sim.Outcome, error) {
	out, err := k.Kodan.OnCapture(cap)
	if !out.Dropped && out.CloudSec <= 0 {
		k.untimed.Add(1)
	}
	return out, err
}

func TestKodanEndToEnd(t *testing.T) {
	env := sampledEnv()
	kodan, err := NewKodan(env, 1.0, codec.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	sys := &timedKodan{Kodan: kodan}
	res, err := sim.Run(env, sys, 0, 40, 80)
	if err != nil {
		t.Fatal(err)
	}
	s := sim.Summarize(res, env.Downlink)
	if s.Captures == 0 || s.Captures == s.Dropped {
		t.Fatalf("captures=%d dropped=%d", s.Captures, s.Dropped)
	}
	// Kodan downloads every non-cloudy tile: on a sunny dataset that is
	// nearly everything, every time.
	if s.MeanTileFrac < 0.85 {
		t.Fatalf("Kodan tile fraction = %.2f, want ~1 on clear data", s.MeanTileFrac)
	}
	if s.MeanPSNR < 32 {
		t.Fatalf("Kodan PSNR = %.1f", s.MeanPSNR)
	}
	// Kodan pays for its accurate on-board detector every capture.
	if n := sys.untimed.Load(); n > 0 {
		t.Fatalf("Kodan cloud-detection timing missing on %d captures", n)
	}
}

func TestSatRoIEndToEnd(t *testing.T) {
	env := sampledEnv()
	sys, err := NewSatRoI(env, 1.0, codec.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(env, sys, 0, 40, 100)
	if err != nil {
		t.Fatal(err)
	}
	s := sim.Summarize(res, env.Downlink)
	if s.Captures == 0 || s.Captures == s.Dropped {
		t.Fatalf("captures=%d dropped=%d", s.Captures, s.Dropped)
	}
	// The fixed reference only ages: its age must grow across the run.
	var first, last int
	for _, r := range res.Records {
		if r.RefAge >= 0 {
			if first == 0 {
				first = r.RefAge
			}
			last = r.RefAge
		}
	}
	if last <= first {
		t.Fatalf("SatRoI reference age did not grow: %d -> %d", first, last)
	}
	// Stale-reference quality degrades but stays usable (guaranteed
	// downloads give it a floor).
	if s.MeanPSNR < 24 {
		t.Fatalf("SatRoI PSNR = %.1f", s.MeanPSNR)
	}
}

// TestHeadlineComparison is the repository's core claim check (Fig 11's
// shape): at the same per-tile quality knob γ, Earth+ needs substantially
// less downlink than both baselines, without losing quality. Exact factors
// vary with the synthetic scene; the ordering and rough magnitude must not.
func TestHeadlineComparison(t *testing.T) {
	const gamma = 1.0
	days := [2]int{40, 100}

	run := func(name string, mk func(env *sim.Env) (sim.System, error)) sim.Summary {
		env := sampledEnv()
		sys, err := mk(env)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sim.Run(env, sys, 0, days[0], days[1])
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		return sim.Summarize(res, env.Downlink)
	}

	earth := run("earth+", func(env *sim.Env) (sim.System, error) {
		cfg := core.DefaultConfig()
		cfg.GammaBPP = gamma
		return core.New(env, cfg)
	})
	kodan := run("kodan", func(env *sim.Env) (sim.System, error) {
		return NewKodan(env, gamma, codec.DefaultOptions())
	})
	satroi := run("satroi", func(env *sim.Env) (sim.System, error) {
		return NewSatRoI(env, gamma, codec.DefaultOptions())
	})

	t.Logf("Earth+: bytes=%.0f frac=%.2f psnr=%.1f", earth.MeanDownBytes, earth.MeanTileFrac, earth.MeanPSNR)
	t.Logf("Kodan : bytes=%.0f frac=%.2f psnr=%.1f", kodan.MeanDownBytes, kodan.MeanTileFrac, kodan.MeanPSNR)
	t.Logf("SatRoI: bytes=%.0f frac=%.2f psnr=%.1f", satroi.MeanDownBytes, satroi.MeanTileFrac, satroi.MeanPSNR)

	if earth.MeanDownBytes*1.5 > kodan.MeanDownBytes {
		t.Fatalf("Earth+ bytes %.0f not well below Kodan %.0f", earth.MeanDownBytes, kodan.MeanDownBytes)
	}
	if earth.MeanDownBytes*1.2 > satroi.MeanDownBytes {
		t.Fatalf("Earth+ bytes %.0f not below SatRoI %.0f", earth.MeanDownBytes, satroi.MeanDownBytes)
	}
	// At equal γ Kodan re-encodes every tile fresh each pass, so its PSNR
	// ceiling is higher; the paper's "no quality loss" claim is about the
	// matched-PSNR bandwidth trade-off (the Fig 11 sweep). Here we check
	// Earth+ holds a high absolute floor and crushes the stale-reference
	// baseline.
	if earth.MeanPSNR < 38 {
		t.Fatalf("Earth+ PSNR %.1f below the quality floor", earth.MeanPSNR)
	}
	if earth.MeanPSNR < satroi.MeanPSNR+5 {
		t.Fatalf("Earth+ PSNR %.1f should far exceed stale-reference SatRoI %.1f", earth.MeanPSNR, satroi.MeanPSNR)
	}
	if earth.MeanTileFrac > 0.5 {
		t.Fatalf("Earth+ downloads %.2f of tiles", earth.MeanTileFrac)
	}
}

// TestSatRoIStoreRateTiedToSharedConstant pins the drift hazard the
// storage model fixed: SatRoI's full-resolution store must account at the
// SAME raw rate as Earth+'s detection-resolution store — one shared
// constant, not an inlined 16. A one-location bootstrap's footprint is
// exactly samples * sat.RawBitsPerSample / 8, the constant core's store
// accounts at too.
func TestSatRoIStoreRateTiedToSharedConstant(t *testing.T) {
	env := sampledEnv()
	s, err := NewSatRoI(env, 1.0, codec.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	cap := env.Scene.CaptureImage(0, 0, 0)
	defer env.Scene.ReleaseCapture(cap)
	if err := s.Bootstrap(cap); err != nil {
		t.Fatal(err)
	}
	_, got := s.ResidentRefs()
	samples := int64(cap.Truth.Width) * int64(cap.Truth.Height) * int64(cap.Truth.NumBands())
	want := (samples*sat.RawBitsPerSample + 7) / 8
	if got != want {
		t.Fatalf("one-reference footprint %d, want %d (raw rate %d bits/sample)",
			got, want, sat.RawBitsPerSample)
	}
}
