package station

import (
	"testing"

	"earthplus/internal/cloud"
	"earthplus/internal/codec"
	"earthplus/internal/raster"
	"earthplus/internal/sat"
)

// pendingGround builds a ground with a tight retransmit bound so the
// demotion class is reachable in a few NACKs.
func pendingGround(t *testing.T, numLocs int) *Ground {
	t.Helper()
	bands := raster.PlanetBands()
	g, err := NewGround(Config{
		Bands:          bands,
		Grid:           raster.MustTileGrid(testW, testH, testTile),
		Downsample:     testDown,
		Accurate:       cloud.DefaultTemporal(bands),
		Storage:        sat.Storage{BPP: 6, Codec: codec.DefaultOptions()},
		MaxRefCloud:    0.05,
		MaxRetransmits: 2,
	}, numLocs)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestPendingUplinkClassifiesLikePackUplink(t *testing.T) {
	g := pendingGround(t, 2)
	locs := []int{0, 1}
	check := func(sat, wantReseeds, wantDeltas, wantDemoted int, why string) {
		t.Helper()
		r, d, m := g.PendingUplink(sat, locs)
		if r != wantReseeds || d != wantDeltas || m != wantDemoted {
			t.Fatalf("%s: PendingUplink(%d) = (%d, %d, %d), want (%d, %d, %d)",
				why, sat, r, d, m, wantReseeds, wantDeltas, wantDemoted)
		}
	}

	// No references anywhere: nothing is pending for anyone.
	check(0, 0, 0, 0, "empty ground")

	// Loc 0 seeded with sat 0's mirror primed: sat 0 is current, sat 1 has
	// no mirror and must re-seed.
	if _, err := g.SeedBootstrap(0, 10, testImage(1), []int{0}); err != nil {
		t.Fatal(err)
	}
	check(0, 0, 0, 0, "primed mirror")
	check(1, 1, 0, 0, "unprimed satellite")

	// A fresher reference for loc 0 turns sat 0's current mirror stale.
	if _, err := g.SeedBootstrap(0, 20, testImage(2), nil); err != nil {
		t.Fatal(err)
	}
	check(0, 0, 1, 0, "stale mirror")
	check(1, 1, 0, 0, "still unprimed")

	// Loc 1 comes online for both: sat 0 adds a re-seed next to its delta.
	if _, err := g.SeedBootstrap(1, 20, testImage(3), nil); err != nil {
		t.Fatal(err)
	}
	check(0, 1, 1, 0, "reseed + delta")
	check(1, 2, 0, 0, "two reseeds")

	// An eviction on board drops sat 0's loc-0 mirror: delta becomes reseed.
	g.InvalidateMirror(0, 0)
	check(0, 2, 0, 0, "evicted mirror")

	// Failed deliveries past MaxRetransmits demote the re-seed.
	for i := 0; i < 3; i++ {
		g.NackDelivery(1, 0)
	}
	check(1, 1, 0, 1, "demoted after repeated NACKs")

	// One success resets the count: back to head-of-line re-seed class.
	g.AckDelivery(1, 0)
	check(1, 2, 0, 0, "ACK resets demotion")
}

// TestPendingUplinkDoesNotMutate: the counting probe must leave mirror
// state untouched — the scheduler calls it every day before any packing.
func TestPendingUplinkDoesNotMutate(t *testing.T) {
	g := pendingGround(t, 1)
	if _, err := g.SeedBootstrap(0, 10, testImage(4), []int{0}); err != nil {
		t.Fatal(err)
	}
	if _, err := g.SeedBootstrap(0, 15, testImage(5), nil); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		r, d, m := g.PendingUplink(0, []int{0})
		if r != 0 || d != 1 || m != 0 {
			t.Fatalf("probe %d: (%d, %d, %d) changed across calls", i, r, d, m)
		}
	}
	if g.MirrorRefDay(0, 0) != 10 {
		t.Fatalf("probe moved the mirror to day %d", g.MirrorRefDay(0, 0))
	}
	// A satellite the ground has never met stays unknown after probing.
	if r, _, _ := g.PendingUplink(9, []int{0}); r != 1 {
		t.Fatalf("unknown satellite pending = %d, want 1 reseed", r)
	}
	if g.MirrorRefDay(9, 0) != -1 {
		t.Fatal("probe materialised a mirror for an unknown satellite")
	}
}
