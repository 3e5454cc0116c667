package scene

import (
	"math"
	"testing"

	"earthplus/internal/orbit"
	"earthplus/internal/raster"
)

// A sky is synthesised once per (location, day) and photographed by every
// satellite over it. Each of its captures must equal, bit for bit, the
// capture CaptureImage synthesises from scratch, and taking and releasing
// captures must leave the sky itself untouched.

// sameBits reports the first pixel where a and b differ in their bits.
func sameBits(t *testing.T, what string, a, b *raster.Image) {
	t.Helper()
	if !a.SameShape(b) {
		t.Fatalf("%s: shapes differ", what)
	}
	for band := range a.Pix {
		for i, v := range a.Pix[band] {
			if math.Float32bits(v) != math.Float32bits(b.Pix[band][i]) {
				t.Fatalf("%s: band %d pixel %d: %v vs %v", what, band, i, v, b.Pix[band][i])
			}
		}
	}
}

func sameMask(t *testing.T, what string, a, b []bool) {
	t.Helper()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("%s: cloud mask differs at %d", what, i)
		}
	}
}

// firstDay returns the first day from `from` on whose cloud target
// satisfies ok.
func firstDay(t *testing.T, s *Scene, loc, from int, ok func(float64) bool) int {
	t.Helper()
	for d := from; d < from+365; d++ {
		if ok(s.CloudCoverageTarget(loc, d)) {
			return d
		}
	}
	t.Fatalf("no suitable day for loc %d from day %d", loc, from)
	return -1
}

func TestSkyCapturesMatchCaptureImage(t *testing.T) {
	s := New(RichContent(Quick))
	// The benchmark sims' constellation: every (location, day) is visited
	// by two satellites.
	orb := orbit.Constellation{Satellites: 8, RevisitDays: 4}
	const snowLoc = 3 // "D", snow-prone
	cases := []struct {
		name     string
		loc, day int
	}{
		{"near-clear", 1, firstDay(t, s, 1, 40, func(c float64) bool { return c < 0.002 })},
		{"cloudy", 2, firstDay(t, s, 2, 40, func(c float64) bool { return c > 0.4 })},
		{"snow-winter", snowLoc, 380},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sats := orb.VisitsOn(tc.loc, tc.day)
			if len(sats) < 2 {
				t.Fatalf("want several visiting satellites, got %v", sats)
			}
			k := s.Sky(tc.loc, tc.day)
			defer s.ReleaseSky(k)
			truth, composite := k.Truth.Clone(), k.composite.Clone()
			mask := append([]bool(nil), k.TrueCloud.Bits...)
			for _, sat := range sats {
				got := k.Capture(sat)
				want := s.CaptureImage(tc.loc, tc.day, sat)
				sameBits(t, "image", got.Image, want.Image)
				sameBits(t, "truth", got.Truth, want.Truth)
				sameMask(t, "capture", got.TrueCloud.Bits, want.TrueCloud.Bits)
				if got.Coverage != want.Coverage || got.TrueIllum != want.TrueIllum {
					t.Fatalf("sat %d: coverage %v / illum %+v, CaptureImage %v / %+v",
						sat, got.Coverage, got.TrueIllum, want.Coverage, want.TrueIllum)
				}
				if got.Loc != tc.loc || got.Day != tc.day || got.Sat != sat {
					t.Fatalf("capture labelled (%d,%d,%d)", got.Loc, got.Day, got.Sat)
				}
				s.ReleaseCapture(want)
				s.ReleaseCapture(got)
			}
			// Churn the pools: a released capture must not have handed the
			// sky's shared buffers to anyone else.
			for d := 0; d < 3; d++ {
				c := s.CaptureImage(tc.loc, tc.day+1+d, sats[0])
				s.ReleaseCapture(c)
			}
			sameBits(t, "sky truth after release", k.Truth, truth)
			sameBits(t, "sky composite after release", k.composite, composite)
			sameMask(t, "sky after release", k.TrueCloud.Bits, mask)
		})
	}
}

// Fleet runs take many captures from one sky concurrently.
func TestSkyConcurrentCaptures(t *testing.T) {
	s := New(quickConfig())
	k := s.Sky(0, 33)
	defer s.ReleaseSky(k)
	const sats = 4
	want := make([]*raster.Image, sats)
	for sat := range want {
		c := k.Capture(sat)
		want[sat] = c.Image.Clone()
		s.ReleaseCapture(c)
	}
	done := make(chan *Capture, 2*sats)
	for g := 0; g < 2*sats; g++ {
		go func() { done <- k.Capture(g % sats) }()
	}
	for g := 0; g < 2*sats; g++ {
		c := <-done
		sameBits(t, "concurrent sky capture", c.Image, want[c.Sat])
		s.ReleaseCapture(c)
	}
}
