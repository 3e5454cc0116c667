package experiments

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
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
	if res.ScalingValid != (runtime.GOMAXPROCS(0) >= 2) {
		t.Fatalf("scaling_valid = %v at GOMAXPROCS=%d", res.ScalingValid, runtime.GOMAXPROCS(0))
	}

	// The snapshot holds the scaling probe and nothing else.
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var snap map[string]json.RawMessage
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatal(err)
	}
	var keys []string
	for k := range snap {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	want := []string{"bootstrap_seconds", "captures_per_run", "days", "deterministic", "go_version",
		"gomaxprocs", "locations", "runs", "satellites", "scaling_valid", "serial_seconds"}
	if !reflect.DeepEqual(keys, want) {
		t.Fatalf("snapshot keys %v, want %v", keys, want)
	}

	var sb strings.Builder
	if err := res.Render(&sb); err != nil {
		t.Fatal(err)
	}
	for _, line := range []string{"speedup", "scaling valid", "traces identical across worker counts: true"} {
		if !strings.Contains(sb.String(), line) {
			t.Fatalf("render missing %q:\n%s", line, sb.String())
		}
	}
}
