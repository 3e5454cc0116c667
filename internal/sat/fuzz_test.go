package sat

import (
	"bytes"
	"testing"

	"earthplus/internal/codec"
	"earthplus/internal/container"
	"earthplus/internal/noise"
	"earthplus/internal/raster"
)

// FuzzStoreFrameMutation is the lossy-link acceptance fuzz: mutate the
// bytes of a RefUpdate.Ref's Frame (the storage-codec container frame a
// compressed on-board store installs verbatim) with an arbitrary
// byte-splice, and assert rejection-not-corruption — either the CRC/parse
// gate (Codestream.Validate, what core's delivery loop runs before
// Install) rejects the frame, or the surviving bytes are the original
// frame and decode to the original content. A mutated frame that both passed the
// gate and decoded to different content would mean the satellite silently
// spliced garbage into its reference store.
func FuzzStoreFrameMutation(f *testing.F) {
	im := raster.New(16, 16, raster.PlanetBands())
	for b := 0; b < im.NumBands(); b++ {
		noise.New(uint64(9000+b)).FillFBM(im.Plane(b), 16, 16, 4, 3)
	}
	ref := heldRef(f, testStorage(codec.DefaultOptions()), im)
	frame, want := ref.Frame, loadRef(f, ref)

	f.Add(0, []byte{0x80}, len(frame))            // single-bit flip in the header
	f.Add(len(frame)/2, []byte{0xFF}, len(frame)) // payload corruption
	f.Add(len(frame)-1, []byte{1}, len(frame))    // CRC trailer corruption
	f.Add(0, []byte(nil), len(frame)/2)           // truncation
	f.Add(0, []byte(nil), 0)                      // total loss
	f.Add(5, []byte{0, 0, 0}, len(frame))         // zero XOR: frame unchanged

	f.Fuzz(func(t *testing.T, pos int, xor []byte, keep int) {
		rx := append([]byte(nil), frame...)
		if keep < 0 {
			keep = 0
		}
		if keep < len(rx) {
			rx = rx[:keep]
		}
		for i, x := range xor {
			if p := pos + i; p >= 0 && p < len(rx) {
				rx[p] ^= x
			}
		}
		if err := container.Codestream(rx).Validate(); err != nil {
			return // rejected whole: the store keeps its stale reference
		}
		// The gate passed: the mutation must not have changed any byte
		// that matters, and the decode must be the original content.
		if !bytes.Equal(rx, frame) {
			t.Fatalf("altered frame (%d vs %d bytes) passed the CRC gate", len(rx), len(frame))
		}
		rxRef := ref
		rxRef.Frame = rx
		got, err := rxRef.Load()
		if err != nil {
			t.Fatalf("validated frame failed to decode: %v", err)
		}
		if !got.Equal(want) {
			t.Fatal("validated frame decoded to different content")
		}
	})
}
