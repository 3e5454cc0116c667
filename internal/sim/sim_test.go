package sim

import (
	"math"
	"testing"

	"earthplus/internal/link"
	"earthplus/internal/orbit"
	"earthplus/internal/raster"
	"earthplus/internal/scene"
)

// fakeSystem is a minimal System that downloads a fixed byte count and
// returns the truth as its reconstruction.
type fakeSystem struct {
	bootstrapped map[int]bool
	captures     int
	perCapture   int64
	up           int64
}

func newFake() *fakeSystem {
	return &fakeSystem{bootstrapped: map[int]bool{}, perCapture: 1000, up: 77}
}

func (f *fakeSystem) Name() string { return "fake" }

func (f *fakeSystem) Bootstrap(cap *scene.Capture) error {
	f.bootstrapped[cap.Loc] = true
	return nil
}

func (f *fakeSystem) OnCapture(cap *scene.Capture) (Outcome, error) {
	f.captures++
	if cap.Coverage > 0.5 {
		return Outcome{Dropped: true, TotalTiles: 64}, nil
	}
	return Outcome{
		DownBytes:        f.perCapture,
		DownTilesPerBand: 16,
		TotalTiles:       64,
		Recon:            cap.Image.Clone(), // EvalPSNR scores against the capture
		RefAge:           3,
	}, nil
}

func (f *fakeSystem) OnDayEnd(int) (int64, error) { return f.up, nil }

func testEnv(t *testing.T) *Env {
	t.Helper()
	return &Env{
		Scene:    scene.New(scene.LargeConstellation(scene.Quick)),
		Orbit:    orbit.Constellation{Satellites: 4, RevisitDays: 8},
		Downlink: link.Budget{Bps: 200e6, SecondsPerContact: 600, ContactsPerDay: 7},
	}
}

func TestRunBootstrapsEveryLocation(t *testing.T) {
	env := testEnv(t)
	sys := newFake()
	res, err := Run(env, sys, 0, 30, 46)
	if err != nil {
		t.Fatal(err)
	}
	for loc := 0; loc < env.Scene.NumLocations(); loc++ {
		if !sys.bootstrapped[loc] {
			t.Fatalf("location %d not bootstrapped", loc)
		}
	}
	// 4 satellites, 8-day revisit: 16 days x 0.5 visits/day = 8 captures.
	if len(res.Records) != 8 {
		t.Fatalf("got %d records, want 8", len(res.Records))
	}
	if res.Days != 16 {
		t.Fatalf("Days = %d", res.Days)
	}
}

func TestRunRecordsMatchOutcomes(t *testing.T) {
	env := testEnv(t)
	res, err := Run(env, newFake(), 0, 30, 62)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res.Records {
		if r.Dropped {
			if r.TrueCoverage <= 0.5 {
				t.Fatalf("dropped capture with coverage %v", r.TrueCoverage)
			}
			if !math.IsNaN(r.PSNR) {
				t.Fatal("dropped capture has PSNR")
			}
			continue
		}
		if r.DownBytes != 1000 || r.DownTileFrac != 0.25 || r.RefAge != 3 {
			t.Fatalf("record %+v", r)
		}
		// Recon == capture: PSNR must be effectively infinite (or huge).
		if r.PSNR < 60 {
			t.Fatalf("capture recon PSNR = %v", r.PSNR)
		}
	}
	//lint:deterministic per-key assertion; visit order cannot affect the outcome
	for day, up := range res.UpBytesByDay {
		if up != 77 {
			t.Fatalf("day %d uplink = %d", day, up)
		}
	}
}

func TestSummarize(t *testing.T) {
	env := testEnv(t)
	res, err := Run(env, newFake(), 0, 30, 94)
	if err != nil {
		t.Fatal(err)
	}
	s := Summarize(res, env.Downlink)
	if s.Captures != len(res.Records) {
		t.Fatalf("captures %d != records %d", s.Captures, len(res.Records))
	}
	if s.Captures-s.Dropped <= 0 {
		t.Fatal("everything dropped")
	}
	if s.MeanDownBytes != 1000 {
		t.Fatalf("MeanDownBytes = %v", s.MeanDownBytes)
	}
	if s.MeanTileFrac != 0.25 {
		t.Fatalf("MeanTileFrac = %v", s.MeanTileFrac)
	}
	if s.MeanRefAge != 3 {
		t.Fatalf("MeanRefAge = %v", s.MeanRefAge)
	}
	if s.MeanUpBytesPerDay != 77 {
		t.Fatalf("MeanUpBytesPerDay = %v", s.MeanUpBytesPerDay)
	}
	// 1000 bytes over 7x600 s of daily contact time.
	wantBps := 1000.0 * 8 / (7 * 600)
	if math.Abs(s.RequiredDownlinkBps-wantBps) > 1e-9 {
		t.Fatalf("RequiredDownlinkBps = %v, want %v", s.RequiredDownlinkBps, wantBps)
	}
}

func TestEvalPSNRMasksCloudTiles(t *testing.T) {
	env := testEnv(t)
	// Find a moderately cloudy day so some tiles are excluded.
	day := -1
	for d := 0; d < 300; d++ {
		if c := env.Scene.CloudCoverageTarget(0, d); c > 0.2 && c < 0.45 {
			day = d
			break
		}
	}
	if day < 0 {
		t.Skip("no suitable day")
	}
	cap := env.Scene.CaptureImage(0, day, 0)
	grid := env.Scene.Grid()
	// A recon that equals the capture everywhere except cloudy tiles
	// (filled with zeros) must still score perfectly: cloudy tiles are
	// excluded from evaluation.
	recon := cap.Image.Clone()
	clear := cap.TrueCloud.TileMask(grid, 0.05)
	for t2, cloudy := range clear.Set {
		if cloudy {
			for b := 0; b < recon.NumBands(); b++ {
				raster.ZeroTile(recon, b, grid, t2)
			}
		}
	}
	if psnr := EvalPSNR(cap, recon, grid); psnr < 60 {
		t.Fatalf("cloud-masked eval PSNR = %v, want very high", psnr)
	}
}

func TestRunRejectsBadOrbit(t *testing.T) {
	env := testEnv(t)
	env.Orbit = orbit.Constellation{}
	if _, err := Run(env, newFake(), 0, 10, 20); err == nil {
		t.Fatal("expected orbit validation error")
	}
}

func TestWorkersConvention(t *testing.T) {
	if got := Workers(1, 10); got != 1 {
		t.Fatalf("Workers(1,10) = %d", got)
	}
	if got := Workers(8, 3); got != 3 {
		t.Fatalf("Workers(8,3) = %d (must not exceed shard count)", got)
	}
	if got := Workers(0, 64); got < 1 {
		t.Fatalf("Workers(0,64) = %d", got)
	}
	if got := Workers(-5, 0); got != 1 {
		t.Fatalf("Workers(-5,0) = %d", got)
	}
}
