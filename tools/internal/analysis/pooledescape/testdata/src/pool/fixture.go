// Package pool exercises pooledescape's two rules against the repo's
// acquire/release shapes.
package pool

import "sync"

type Capture struct {
	Image []byte
	Truth []byte
}

func CaptureImage() *Capture { return &Capture{} }

func ReleaseCapture(c *Capture) {}

// Scene hands out skies; every capture of a sky shares its truth, so the
// sky is released after its last capture.
type Scene struct{}

type Sky struct {
	Truth []byte
}

func (s *Scene) Sky(loc, day int) *Sky { return &Sky{} }

func (k *Sky) Capture(sat int) *Capture { return &Capture{Truth: k.Truth} }

func ReleaseSky(k *Sky) {}

func process(c *Capture) error { return nil }

type scratch struct{}

func getScratch() *scratch { return &scratch{} }

func (s *scratch) release() {}

var bufs sync.Pool

func consume(c *Capture) {}

// Leak never releases: the field read is not a hand-off.
func Leak() []byte {
	c := CaptureImage() // want "pooled value c from CaptureImage is not released on every path"
	return c.Image
}

// BranchLeak releases on one arm only.
func BranchLeak(cond bool) {
	c := CaptureImage() // want "pooled value c from CaptureImage is not released on every path"
	if cond {
		ReleaseCapture(c)
	}
}

// Balanced releases on the straight path.
func Balanced() int {
	c := CaptureImage()
	n := len(c.Image)
	ReleaseCapture(c)
	return n
}

// Deferred registers the release up front: every path is covered.
func Deferred() int {
	c := CaptureImage()
	defer ReleaseCapture(c)
	return len(c.Image)
}

// ScratchOK uses the codec arena's method-release shape.
func ScratchOK() {
	s := getScratch()
	defer s.release()
}

// Handoff returns the whole value: the caller now owns the release.
func Handoff() *Capture {
	c := CaptureImage()
	return c
}

// PassOn hands the whole value to another function.
func PassOn() {
	c := CaptureImage()
	consume(c)
}

// AbortPath panics before the release: aborting paths need none.
func AbortPath(cond bool) {
	c := CaptureImage()
	if cond {
		panic("unreachable in fixtures")
	}
	ReleaseCapture(c)
}

// UseAfterRelease touches the buffer once it is back in the pool.
func UseAfterRelease() int {
	c := CaptureImage()
	ReleaseCapture(c)
	return len(c.Image) // want "use of c after its release"
}

// Reacquired rebinds after the release: the new value is live again.
func Reacquired() *Capture {
	c := CaptureImage()
	ReleaseCapture(c)
	c = CaptureImage()
	return c
}

// PoolRoundTrip balances a sync.Pool Get with its Put.
func PoolRoundTrip() {
	b := bufs.Get().(*[]byte)
	bufs.Put(b)
}

// PoolLeak never puts the value back.
func PoolLeak() int {
	b := bufs.Get().(*[]byte) // want "pooled value b from Get is not released on every path"
	return len(*b)
}

// ClosureRelease is the serving tier's shape: the cleanup closure both
// discharges the obligation and must not count as a premature release.
func ClosureRelease() (*[]byte, func()) {
	b := bufs.Get().(*[]byte)
	release := func() { bufs.Put(b) }
	return b, release
}

// SuppressedLeak documents a deliberate lifetime extension.
func SuppressedLeak() []byte {
	//lint:pooled fixture retains the capture for the process lifetime
	c := CaptureImage()
	return c.Image
}

// SkyAfterCaptures is the engine's shape: one sky per location, each
// visit's capture taken from it and released, the sky released last.
func SkyAfterCaptures(s *Scene, sats []int) int {
	k := s.Sky(0, 1)
	defer ReleaseSky(k)
	n := 0
	for _, sat := range sats {
		c := k.Capture(sat)
		n += len(c.Image)
		ReleaseCapture(c)
	}
	return n
}

// SkyLeakOnError returns a visit's error before the sky's release.
func SkyLeakOnError(s *Scene, sats []int) error {
	k := s.Sky(0, 1) // want "pooled value k from Sky is not released on every path"
	for _, sat := range sats {
		if err := process(k.Capture(sat)); err != nil {
			return err
		}
	}
	ReleaseSky(k)
	return nil
}

// SkyCaptureLeak reads a capture's field without releasing it.
func SkyCaptureLeak(k *Sky) int {
	c := k.Capture(3) // want "pooled value c from Capture is not released on every path"
	return len(c.Image)
}
