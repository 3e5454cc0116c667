package station

import (
	"testing"

	"earthplus/internal/codec"
	"earthplus/internal/container"
	"earthplus/internal/link"
	"earthplus/internal/noise"
	"earthplus/internal/raster"
	"earthplus/internal/sat"
)

// Property test for lossy-link recovery: ANY single dropped or corrupted
// update — at every injection point within a contact, on both the raw
// (ApplyTileUpdate) and the compressed (Install) paths — leaves the
// directional coherence invariant intact (mirror non-nil ⇒ the on-board
// reference is byte-equal to it), and the next successful contact
// re-seeds the failed location in full with the Retransmit flag set.
// This emulates exactly what core's OnDayEnd delivery loop does: install
// + AckDelivery on success, NackDelivery on loss or CRC rejection.

func TestSingleFaultedUpdateKeepsCoherence(t *testing.T) {
	for _, tc := range []struct {
		name     string
		compress bool
	}{
		{"raw", false},
		{"ref-compression-on", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const numLocs, satID = 3, 0
			var g *Ground
			var cache *sat.RefCache
			if tc.compress {
				g = testGroundCompressed(t, numLocs)
				cache = compressedTestCache(t, 0) // unbounded: faults, not evictions, under test
			} else {
				g = testGround(t, numLocs)
				cache = sat.NewRefCache()
			}
			grid := raster.MustTileGrid(testW, testH, testTile)
			src := noise.New(60462)

			state := make([]*raster.Image, numLocs)
			for loc := 0; loc < numLocs; loc++ {
				full := testImage(uint64(400 + loc))
				if _, err := g.SeedBootstrap(loc, 0, full, []int{satID}); err != nil {
					t.Fatal(err)
				}
				state[loc] = full
				cache.Put(loc, g.MirrorImage(satID, loc), 0)
			}

			locs := []int{0, 1, 2}
			nacked := -1 // location whose delivery failed on the previous day
			faults, corruptions, recoveries := 0, 0, 0
			for day := 1; day <= 16; day++ {
				for loc := 0; loc < numLocs; loc++ {
					state[loc] = mutateTiles(src, day*numLocs+loc, state[loc], grid, 2)
					applyFull(t, g, loc, day, state[loc])
				}
				updates, err := g.PackUplink(satID, day, locs, link.NewMeter(0))
				if err != nil {
					t.Fatal(err)
				}
				if nacked >= 0 {
					// The failed location must be re-sent this contact, in
					// FULL (its mirror slot is nil — no delta against state
					// the satellite may not hold), flagged as a retransmit,
					// and — as a pending re-seed — ahead of delta updates.
					if len(updates) == 0 || updates[0].Loc != nacked {
						t.Fatalf("day %d: nacked loc %d not at the head of the next contact", day, nacked)
					}
					u := updates[0]
					if !u.Retransmit {
						t.Fatalf("day %d: re-sent update for loc %d not flagged Retransmit", day, u.Loc)
					}
					for b, m := range u.PerBand {
						if m.Count() != m.Grid.NumTiles() {
							t.Fatalf("day %d loc %d: retransmit band %d partial (%d/%d tiles)",
								day, u.Loc, b, m.Count(), m.Grid.NumTiles())
						}
					}
				}
				// Rotate the injection point over every index and alternate
				// the fault kind, so each position sees both drops and
				// CRC-rejected corruptions over the run.
				faultIdx := -1
				if len(updates) > 0 && day < 15 { // last days deliver clean so every NACK recovers
					faultIdx = day % len(updates)
				}
				corrupt := (day/3)%2 == 1
				prevNacked := nacked
				nacked = -1
				for i, u := range updates {
					if len(u.Frame) == 0 {
						t.Fatalf("day %d loc %d: update carries no wire frame", day, u.Loc)
					}
					if err := u.Frame.Validate(); err != nil {
						t.Fatalf("day %d loc %d: pristine frame rejected: %v", day, u.Loc, err)
					}
					if i == faultIdx {
						faults++
						if corrupt {
							// One flipped byte anywhere must be caught by the
							// container CRC — rejection, never a bad splice.
							rx := append(container.Codestream(nil), u.Frame...)
							rx[(day*7)%len(rx)] ^= 0x41
							if err := rx.Validate(); err == nil {
								t.Fatalf("day %d loc %d: corrupted frame passed the CRC gate", day, u.Loc)
							}
							corruptions++
						}
						g.NackDelivery(satID, u.Loc)
						nacked = u.Loc
						if g.RetryCount(satID, u.Loc) == 0 {
							t.Fatalf("day %d loc %d: NACK did not count a retry", day, u.Loc)
						}
						if g.MirrorRefDay(satID, u.Loc) != -1 {
							t.Fatalf("day %d loc %d: NACK left the mirror committed", day, u.Loc)
						}
						continue
					}
					if tc.compress {
						cache.Install(u.Loc, u.Ref, u.Day)
					} else {
						cache.ApplyTileUpdate(u.Loc, u.Decoded, u.PerBand, u.Day)
					}
					g.AckDelivery(satID, u.Loc)
					if g.RetryCount(satID, u.Loc) != 0 {
						t.Fatalf("day %d loc %d: ACK did not clear the retry count", day, u.Loc)
					}
					if u.Loc == prevNacked {
						recoveries++
					}
				}
				// The invariant delta uplinks depend on, checked after EVERY
				// contact including the faulted ones: wherever the ground
				// holds a mirror, the satellite holds byte-equal content.
				for loc := 0; loc < numLocs; loc++ {
					mirror := g.MirrorImage(satID, loc)
					if mirror == nil {
						continue
					}
					ref := cache.Get(loc)
					if ref == nil {
						t.Fatalf("day %d loc %d: ground mirrors a reference the satellite does not hold", day, loc)
					}
					if !ref.Image.Equal(mirror) {
						t.Fatalf("day %d loc %d: on-board reference diverged from ground mirror", day, loc)
					}
				}
			}
			if faults < 6 || corruptions == 0 || recoveries == 0 {
				t.Fatalf("property not exercised: %d faults, %d corruptions, %d recoveries",
					faults, corruptions, recoveries)
			}
			if nacked != -1 {
				t.Fatal("run ended with an unrecovered NACK; recovery path not closed")
			}
		})
	}
}

// TestRetransmitDemotionAfterMaxRetries pins the bounded retry
// accounting: a location whose deliveries keep failing holds
// head-of-line re-seed priority for MaxRetransmits consecutive failures,
// is demoted behind routine delta updates afterwards (so a dead path
// cannot starve the rest of the fleet's freshness), and one successful
// delivery resets it to a first-class citizen.
func TestRetransmitDemotionAfterMaxRetries(t *testing.T) {
	const numLocs, satID, maxRetx = 2, 0, 2
	bands := raster.PlanetBands()
	g, err := NewGround(Config{
		Bands:          bands,
		Grid:           raster.MustTileGrid(testW, testH, testTile),
		Downsample:     testDown,
		Storage:        sat.Storage{BPP: 6, Codec: codec.DefaultOptions()},
		MaxRefCloud:    0.05,
		MaxRetransmits: maxRetx,
	}, numLocs)
	if err != nil {
		t.Fatal(err)
	}
	grid := raster.MustTileGrid(testW, testH, testTile)
	src := noise.New(5150)
	state := make([]*raster.Image, numLocs)
	for loc := 0; loc < numLocs; loc++ {
		state[loc] = testImage(uint64(700 + loc))
		if _, err := g.SeedBootstrap(loc, 0, state[loc], []int{satID}); err != nil {
			t.Fatal(err)
		}
	}
	locs := []int{0, 1}
	const victim = 0
	for day := 1; day <= 6; day++ {
		// Fresh content everywhere so loc 1 always has a delta to ship.
		for loc := 0; loc < numLocs; loc++ {
			state[loc] = mutateTiles(src, day*numLocs+loc, state[loc], grid, 2)
			applyFull(t, g, loc, day, state[loc])
		}
		updates, err := g.PackUplink(satID, day, locs, link.NewMeter(0))
		if err != nil {
			t.Fatal(err)
		}
		var idx = -1
		for i, u := range updates {
			if u.Loc == victim {
				idx = i
			} else {
				g.AckDelivery(satID, u.Loc)
			}
		}
		if idx < 0 {
			t.Fatalf("day %d: victim loc never packed", day)
		}
		// While retries <= MaxRetransmits the victim's re-seed preempts
		// the delta class; beyond that it must queue behind it.
		if g.RetryCount(satID, victim) <= maxRetx {
			if idx != 0 {
				t.Fatalf("day %d: victim at index %d, want head-of-line (retries %d)", day, idx, g.RetryCount(satID, victim))
			}
		} else if idx == 0 && len(updates) > 1 {
			t.Fatalf("day %d: victim still head-of-line after %d retries", day, g.RetryCount(satID, victim))
		}
		if day < 6 {
			g.NackDelivery(satID, victim)
		} else {
			// Final delivery succeeds: the counter resets and the mirror
			// commit stands.
			g.AckDelivery(satID, victim)
		}
	}
	if got := g.RetryCount(satID, victim); got != 0 {
		t.Fatalf("retry count %d after successful delivery, want 0", got)
	}
	if g.MirrorRefDay(satID, victim) == -1 {
		t.Fatal("mirror not committed after successful delivery")
	}
}
