package experiments

import (
	"strings"
	"testing"

	"earthplus/internal/constellation"
	"earthplus/internal/scene"
)

// constSnapshotScale is the compact scale the constellation sweep test
// runs at: one location and a short evaluation window. A 64-satellite
// fleet over one location already generates the contention the sweep
// measures.
func constSnapshotScale() Scale {
	return Scale{
		Size:         scene.Quick,
		ProfileStart: 0,
		ProfileDays:  25,
		EvalStart:    40,
		EvalDays:     12,
		MaxLocations: 1,
	}
}

// TestConstellationSweepContention pins the sweep's shape: every point
// books contacts (ConstellationSweep itself fails a contact over its
// meter) and tracks events, and satellites stall for a contact window
// exactly where the fleet outnumbers the stations' daily windows.
func TestConstellationSweepContention(t *testing.T) {
	res, err := ConstellationSweep(constSnapshotScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != len(constSweepSats)*len(constSweepStations) {
		t.Fatalf("sweep shape: %d points, want %d", len(res.Points), len(constSweepSats)*len(constSweepStations))
	}
	for _, p := range res.Points {
		if p.Contacts == 0 {
			t.Fatalf("%d sats / %d stations booked no contacts", p.Satellites, p.Stations)
		}
		if p.Events.Tracked == 0 {
			t.Fatalf("%d sats / %d stations tracked no events", p.Satellites, p.Stations)
		}
		contended := p.Satellites > p.Stations*constellation.DefaultContactsPerStation
		if (p.Stalls > 0) != contended {
			t.Fatalf("%d sats / %d stations: %d stalls, want stalls exactly when the fleet outnumbers the %d daily windows",
				p.Satellites, p.Stations, p.Stalls, p.Stations*constellation.DefaultContactsPerStation)
		}
	}
	var sb strings.Builder
	if err := res.Render(&sb); err != nil {
		t.Fatal(err)
	}
	for _, col := range []string{"mean TTUI", "max TTUI"} {
		if !strings.Contains(sb.String(), col) {
			t.Fatalf("render missing the %q column:\n%s", col, sb.String())
		}
	}
}
