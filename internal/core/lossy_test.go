package core

import (
	"bytes"
	"testing"

	"earthplus/internal/link"
	"earthplus/internal/registry"
	"earthplus/internal/sim"
)

// TestLossyRunGracefulAndCoherent is the end-to-end robustness
// acceptance: a full Earth+ run over a channel losing ~5% of frames
// (every fault kind enabled) must complete without error, actually
// exercise the fault taxonomy and the retransmit path, keep the
// ground/satellite coherence invariant intact at the end of the mission,
// and still produce usable imagery.
func TestLossyRunGracefulAndCoherent(t *testing.T) {
	env := planetEnv()
	env.UplinkBytesPerDay = 64 << 10 // tight enough that retransmits compete with fresh traffic
	cfg := DefaultConfig()
	cfg.LinkFaults = link.UniformFaults(0.05, 1)
	sys, err := New(env, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(env, sys, 0, 40, 80)
	if err != nil {
		t.Fatal(err)
	}
	stats := sys.LinkStats()
	if stats.UplinkUpdates == 0 || stats.DownlinkFrames == 0 {
		t.Fatalf("channel never exercised: %+v", stats)
	}
	if stats.UplinkDropped+stats.UplinkCorrupted == 0 {
		t.Fatalf("no uplink faults fired at 5%% loss: %+v", stats)
	}
	if stats.DownlinkDropped+stats.DownlinkCorrupted == 0 {
		t.Fatalf("no downlink faults fired at 5%% loss: %+v", stats)
	}
	if stats.Retransmits == 0 || stats.RetransmitBytes == 0 {
		t.Fatalf("lost updates never retransmitted: %+v", stats)
	}
	var downFaults int
	for _, r := range res.Records {
		if r.DownDropped || r.DownCorrupted {
			downFaults++
		}
	}
	if int64(downFaults) != stats.DownlinkDropped+stats.DownlinkCorrupted {
		t.Fatalf("records carry %d downlink faults, stats %d",
			downFaults, stats.DownlinkDropped+stats.DownlinkCorrupted)
	}
	// Coherence after a lossy mission: wherever the ground still mirrors
	// a reference, the satellite holds byte-equal content — no fault may
	// ever leave a mirror pointing at state the satellite does not have.
	checked := 0
	for satID := 0; satID < env.Orbit.Satellites; satID++ {
		cache := sys.caches[satID]
		for loc := 0; loc < env.Scene.NumLocations(); loc++ {
			mirror := sys.ground.MirrorImage(satID, loc)
			if mirror == nil {
				continue
			}
			ref, _ := cache.Get(loc)
			if ref == nil {
				t.Fatalf("sat %d loc %d: ground mirrors a reference the satellite does not hold", satID, loc)
			}
			if !ref.Image.Equal(mirror) {
				t.Fatalf("sat %d loc %d: on-board reference diverged from ground mirror", satID, loc)
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("no mirrored references left to check")
	}
	s := sim.Summarize(res, env.Downlink)
	if s.MeanPSNR < 20 {
		t.Fatalf("mean PSNR %.1f dB at 5%% loss: degradation not graceful", s.MeanPSNR)
	}
}

// TestEnabledButQuietChannelMatchesPerfectChannel pins the injector's
// transparency: a channel that is ENABLED (so every frame runs through
// Transmit, the CRC gates and the ACK/NACK bookkeeping) but whose rates
// are too small for any fault to ever fire must reproduce the perfect
// channel's records exactly. This is the strong form of the zero-knob
// byte-identity guarantee: not just "the injector is bypassed at zero",
// but "the delivery-loop plumbing itself changes nothing".
func TestEnabledButQuietChannelMatchesPerfectChannel(t *testing.T) {
	run := func(cfg Config) ([]byte, error) {
		t.Helper()
		env := planetEnv()
		sys, err := New(env, cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sim.Run(env, sys, 0, 40, 55)
		if err != nil {
			t.Fatal(err)
		}
		return sim.TraceBytes(res)
	}
	perfect, errA := run(DefaultConfig())
	quiet := DefaultConfig()
	quiet.LinkFaults = link.UniformFaults(1e-12, 1)
	got, errB := run(quiet)
	if errA != nil || errB != nil || !bytes.Equal(perfect, got) {
		t.Fatalf("quiet fault-injected channel diverged from the perfect channel (errors %v, %v)", errA, errB)
	}
}

// TestLinkParamsOnSpec covers the public knobs: link_loss/link_seed flow
// through the registry into the channel, out-of-range values are
// rejected loudly, and invalid FaultConfigs cannot reach New.
func TestLinkParamsOnSpec(t *testing.T) {
	env := planetEnv()
	sys, err := registry.New(SystemName, env, registry.Spec{
		Params: map[string]float64{"link_loss": 0.04, "link_seed": 7},
	})
	if err != nil {
		t.Fatal(err)
	}
	got := sys.(*System).channel.Config()
	want := link.UniformFaults(0.04, 7)
	if got != want {
		t.Fatalf("channel config %+v, want %+v", got, want)
	}
	for _, bad := range []float64{-0.1, 1.5} {
		if _, err := registry.New(SystemName, env, registry.Spec{
			Params: map[string]float64{"link_loss": bad},
		}); err == nil {
			t.Fatalf("link_loss=%v accepted", bad)
		}
	}
	cfg := DefaultConfig()
	cfg.LinkFaults = link.FaultConfig{DropRate: -1}
	if _, err := New(env, cfg); err == nil {
		t.Fatal("negative DropRate accepted by New")
	}
}
