package experiments

import (
	"io"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

func TestSimBenchSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("simbench measures wall-clock runs")
	}
	out := filepath.Join(t.TempDir(), "BENCH_sim.json")
	res, err := SimBench(out)
	if err != nil {
		t.Fatal(err)
	}
	if res.CapturesPerRun == 0 {
		t.Fatal("benchmark processed no captures")
	}
	if !res.Deterministic {
		t.Fatal("sharded runs diverged from the serial run")
	}
	if len(res.Runs) < 3 || res.Runs[0].Workers != 1 || res.Runs[0].SpeedupVsSerial != 1 {
		t.Fatalf("unexpected run sweep: %+v", res.Runs)
	}
	for _, run := range res.Runs {
		if run.Seconds <= 0 || run.SpeedupVsSerial <= 0 {
			t.Fatalf("degenerate measurement: %+v", run)
		}
	}
	if res.ID() == "" {
		t.Fatal("empty ID")
	}
	if res.Storage == nil || len(res.Storage.Systems) != 4 {
		t.Fatalf("snapshot missing the storage sweep (raw + compressed Earth+, SatRoI, Kodan): %+v", res.Storage)
	}
	if len(res.Storage.PolicySweep) != 4 {
		t.Fatalf("snapshot missing the eviction-policy sweep: %+v", res.Storage.PolicySweep)
	}
	if res.RefDecode == nil || res.RefDecode.Decodes == 0 {
		t.Fatalf("compressed-refs run never decoded on visit: %+v", res.RefDecode)
	}
	if res.TiledRefDecode == nil || res.TiledRefDecode.SpliceTilesTotal == 0 {
		t.Fatalf("tiled-store run never spliced a mirror frame: %+v", res.TiledRefDecode)
	}
	if res.ScalingValid != (runtime.GOMAXPROCS(0) >= 2) {
		t.Fatalf("scaling_valid = %v at GOMAXPROCS=%d", res.ScalingValid, runtime.GOMAXPROCS(0))
	}
	if res.Const == nil || len(res.Const.Points) != len(constSweepSats)*len(constSweepStations) {
		t.Fatalf("snapshot missing the constellation sweep: %+v", res.Const)
	}
	for _, p := range res.Const.Points {
		if p.Contacts == 0 {
			t.Fatalf("constellation point %dx%d booked no contacts", p.Satellites, p.Stations)
		}
		if p.Events.Tracked == 0 {
			t.Fatalf("constellation point %dx%d tracked no events", p.Satellites, p.Stations)
		}
	}
	var sb strings.Builder
	if err := res.Render(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "speedup") {
		t.Fatalf("render missing speedup column:\n%s", sb.String())
	}
	if !strings.Contains(sb.String(), "scaling valid") {
		t.Fatalf("render missing the scaling-validity line:\n%s", sb.String())
	}
	if !strings.Contains(sb.String(), "TTUI") {
		t.Fatalf("render missing the constellation sweep table:\n%s", sb.String())
	}
	if err := res.Render(io.Discard); err != nil {
		t.Fatal(err)
	}
}
