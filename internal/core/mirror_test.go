package core

import (
	"fmt"
	"math"
	"testing"

	"earthplus/internal/constellation"
	"earthplus/internal/link"
	"earthplus/internal/orbit"
	"earthplus/internal/raster"
	"earthplus/internal/sat"
	"earthplus/internal/scene"
	"earthplus/internal/sim"
)

// mirrorChecker wraps a System and checks, after every day end, the
// invariants delta uplinks rest on: wherever the ground mirrors a
// reference, the satellite's store holds that location with content
// bit-identical to the mirror, and no store's footprint exceeds its
// budget. It also checks the day's uplink accounting (checkUplink). A
// violation fails the run.
type mirrorChecker struct {
	*System
	checked int
}

func (m *mirrorChecker) OnDayEnd(day int) (int64, error) {
	booked, retx := len(m.contacts), m.LinkStats().RetransmitBytes
	up, err := m.System.OnDayEnd(day)
	if err != nil {
		return up, err
	}
	if err := m.checkUplink(day, up, m.contacts[booked:], m.LinkStats().RetransmitBytes-retx); err != nil {
		return up, err
	}
	budget := sat.ResolveBudget(m.cfg.StorageBytes)
	for satID, cache := range m.caches {
		if fp := cache.FootprintBytes(); budget > 0 && fp > budget {
			return up, fmt.Errorf("day %d sat %d: footprint %d B exceeds budget %d B", day, satID, fp, budget)
		}
		for loc := 0; loc < m.env.Scene.NumLocations(); loc++ {
			mirror := m.ground.MirrorImage(satID, loc)
			if mirror == nil {
				continue
			}
			ref := cache.Get(loc) // Get leaves eviction recency alone
			if ref == nil {
				return up, fmt.Errorf("day %d sat %d loc %d: the ground mirrors a reference the store does not hold", day, satID, loc)
			}
			if !sameBits(ref.Image, mirror) {
				return up, fmt.Errorf("day %d sat %d loc %d: the store's content differs from the ground's mirror", day, satID, loc)
			}
			m.checked++
		}
	}
	return up, nil
}

// checkUplink checks one day end's uplink accounting against the day's
// uplink bytes up: the day's retransmitted bytes retx ride inside them.
// Under the flat budget the fleet moved at most Satellites x
// UplinkBytesPerDay. With stations, every contact booked that day sits on
// the station/window grid, no (station, window) is booked twice, none
// moved more than the per-contact budget, and their bytes sum to up.
func (m *mirrorChecker) checkUplink(day int, up int64, contacts []sim.ContactRecord, retx int64) error {
	if retx > up {
		return fmt.Errorf("day %d: retransmitted %d bytes of a %d-byte uplink day", day, retx, up)
	}
	if m.sched == nil {
		fleet := int64(m.env.Orbit.Satellites) * m.env.UplinkBytesPerDay
		if m.env.UplinkBytesPerDay > 0 && up > fleet {
			return fmt.Errorf("day %d: uplinked %d bytes over the %d-byte fleet budget", day, up, fleet)
		}
		return nil
	}
	budget := m.ContactBudget()
	slots := map[[2]int]bool{}
	var sum int64
	for _, ct := range contacts {
		if ct.Day != day || ct.Station < 0 || ct.Station >= m.cfg.Constellation.Stations ||
			ct.Window < 0 || ct.Window >= constellation.DefaultContactsPerStation {
			return fmt.Errorf("day %d: contact %+v is off the station/window grid", day, ct)
		}
		slot := [2]int{ct.Station, ct.Window}
		if slots[slot] {
			return fmt.Errorf("day %d: station %d window %d booked twice", day, ct.Station, ct.Window)
		}
		slots[slot] = true
		if budget > 0 && ct.Bytes > budget {
			return fmt.Errorf("day %d: contact %+v moved more than the %d-byte budget", day, ct, budget)
		}
		sum += ct.Bytes
	}
	if sum != up {
		return fmt.Errorf("day %d: contacts moved %d bytes, the day %d", day, sum, up)
	}
	return nil
}

// sameBits reports whether two images hold bit-identical pixels.
func sameBits(a, b *raster.Image) bool {
	if !a.SameShape(b) {
		return false
	}
	for band, p := range a.Pix {
		for i, v := range p {
			if math.Float32bits(v) != math.Float32bits(b.Pix[band][i]) {
				return false
			}
		}
	}
	return true
}

// barrierEnv is a small scene for the day-barrier checks: five w×w
// Planet locations of mixed content, sats satellites on a 2-day revisit, a
// tight uplink that trims updates, and four capture workers, so captures
// visit compressed stores concurrently between the day-end installs.
func barrierEnv(w, tile, sats int, uplink int64) *sim.Env {
	cfg := scene.LargeConstellation(scene.Quick)
	cfg.Width, cfg.Height, cfg.TileSize = w, w, tile
	cfg.Locations = []scene.Location{
		{Name: "A", Content: scene.Coastal},
		{Name: "B", Content: scene.Forest},
		{Name: "C", Content: scene.Snowfield, SnowProne: true},
		{Name: "D", Content: scene.City},
		{Name: "E", Content: scene.Agriculture},
	}
	return &sim.Env{
		Scene:             scene.New(cfg),
		Orbit:             orbit.Constellation{Satellites: sats, RevisitDays: 2},
		Downlink:          link.Budget{Bps: 200e6, SecondsPerContact: 600, ContactsPerDay: 7},
		UplinkBytesPerDay: uplink,
		Parallelism:       4,
	}
}

// TestMirrorMatchesStoreEveryDay checks mirror == decode(store),
// footprint <= budget and the day's uplink accounting at every day end,
// across the store kinds and the knobs that touch them. One raw 16x16x4 reference costs 2,048 B and a
// compressed one about 850 B, so the bounded rows evict. The tiled row's
// 128x128 references span 2x2 codec tiles, so its ground splices mirror
// frames per tile; a few days reach the first spliced installs.
func TestMirrorMatchesStoreEveryDay(t *testing.T) {
	for _, row := range []struct {
		name    string
		env     *sim.Env
		set     func(*Config)
		lastDay int
	}{
		{"raw-5000B", barrierEnv(64, 16, 4, 6<<10), func(c *Config) {
			c.StorageBytes = 5000
		}, 40},
		{"compressed-2000B", barrierEnv(64, 16, 4, 6<<10), func(c *Config) {
			c.StorageBytes, c.RefCompression = 2000, true
		}, 40},
		{"tiled", barrierEnv(256, 32, 4, 64<<10), func(c *Config) {
			c.RefCompression, c.RefDownsample, c.CodecOpts.Tiled = true, 2, true
		}, 24},
		{"lossy-compressed", barrierEnv(64, 16, 4, 6<<10), func(c *Config) {
			c.RefCompression, c.LinkFaults = true, link.UniformFaults(0.08, 3)
		}, 40},
		{"16-sats-2-stations", barrierEnv(64, 16, 16, 6<<10), func(c *Config) {
			c.Constellation = constellation.Config{Stations: 2}
		}, 40},
	} {
		t.Run(row.name, func(t *testing.T) {
			cfg := DefaultConfig()
			row.set(&cfg)
			sys, err := New(row.env, cfg)
			if err != nil {
				t.Fatal(err)
			}
			m := &mirrorChecker{System: sys}
			if _, err := sim.Run(row.env, m, 0, 20, row.lastDay); err != nil {
				t.Fatal(err)
			}
			if m.checked == 0 {
				t.Fatal("no mirrored reference was checked")
			}
			t.Logf("%d mirror checks", m.checked)
		})
	}
}
