package sat

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"slices"
	"strings"
	"testing"

	"earthplus/internal/codec"
	"earthplus/internal/noise"
	"earthplus/internal/raster"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite the golden frame digests")

// frameDigestPath holds one "<sha256>  <name>" line per pinned output: the
// multi-band frames the store, the ground's mirror and the downlink
// exchange, which the codec's single-band golden vectors do not cover.
// Regenerate it with `go test ./internal/sat -run TestFrameDigests
// -update-golden` on amd64, and say in the change which digest moved and
// why.
const frameDigestPath = "testdata/frame_digests.txt"

// digestImage is a deterministic 4-band scene with fBm texture, an exact
// zero block and out-of-range samples, so the digests cover the decode's
// clamp and its zero handling as well as ordinary content.
func digestImage(seed uint64, w, h int) *raster.Image {
	im := raster.New(w, h, raster.PlanetBands())
	for b := 0; b < im.NumBands(); b++ {
		p := im.Plane(b)
		noise.New(seed+uint64(b)).FillFBM(p, w, h, 5, 4)
		for y := h / 4; y < h/2; y++ {
			for x := w / 4; x < w/2; x++ {
				p[y*w+x] = 0
			}
		}
		for x := 0; x < w; x++ {
			p[x] = float32(x%3) - 0.8 // row 0 spans [-0.8, 1.2]
		}
	}
	return im
}

// digestMasks returns one tile mask per band of g, each marking a
// different pattern; band 3's mask is empty.
func digestMasks(g raster.TileGrid) []*raster.TileMask {
	masks := make([]*raster.TileMask, 4)
	for b := range masks {
		masks[b] = raster.NewTileMask(g)
	}
	for t := range masks[0].Set {
		masks[0].Set[t] = t%3 == 0
		masks[1].Set[t] = t%5 == 1 || t == g.NumTiles()-1
	}
	masks[2].Set[g.NumTiles()/2] = true
	return masks
}

// overlaid returns a copy of base with the tiles marked in masks (one per
// band, nil = none) copied from update.
func overlaid(base, update *raster.Image, masks []*raster.TileMask) *raster.Image {
	out := base.Clone()
	spliceTiles(out, update, masks)
	return out
}

// imageBits hashes an image's pixels by their float32 bits, so -0 and +0
// differ.
func imageBits(im *raster.Image) []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, "%dx%d/%d\n", im.Width, im.Height, im.NumBands())
	for _, p := range im.Pix {
		for _, v := range p {
			b.Write(binary.LittleEndian.AppendUint32(nil, math.Float32bits(v)))
		}
	}
	return b.Bytes()
}

// TestFrameDigests pins the bytes of the multi-band frames the storage
// codec, the tiled splice and the ROI downlink encode produce, and the
// pixel bits the storage decode returns, on both codec profiles. A
// refactor of how frames are coded must leave every digest unchanged.
func TestFrameDigests(t *testing.T) {
	const w, h = 150, 100 // edge codec tiles on both axes
	outputs := map[string][]byte{}
	for _, prof := range []struct {
		name string
		opts codec.Options
	}{{"monolithic", codec.DefaultOptions()}, {"tiled", tiledStoreOpts()}} {
		ref := heldRef(t, testStorage(prof.opts), digestImage(7100, w, h))
		outputs["stored-frame/"+prof.name] = ref.Frame
		outputs["stored-decode/"+prof.name] = imageBits(loadRef(t, ref))

		capImg := digestImage(7200, 128, 96)
		roi, err := EncodeROI(capImg, digestMasks(raster.MustTileGrid(128, 96, 16)), 2.0, prof.opts)
		if err != nil {
			t.Fatal(err)
		}
		outputs["roi-frame/"+prof.name] = roi
	}

	// The splice's input is the held content with the update's changed
	// tiles overlaid, as the ground's mirror builds it.
	tiled := testStorage(tiledStoreOpts())
	old := heldRef(t, tiled, digestImage(7300, w, h))
	masks := digestMasks(raster.MustTileGrid(w, h, 10))
	masks[3] = nil
	spliced, _, st, err := tiled.Update(old, overlaid(loadRef(t, old), digestImage(7400, w, h), masks), masks)
	if err != nil {
		t.Fatal(err)
	}
	outputs["splice-frame/tiled"] = fmt.Appendf(spliced.Frame, "\n%d/%d", st.TilesReencoded, st.TilesTotal)

	golden := readFrameDigests(t)
	compare := runtime.GOARCH == "amd64"
	if *updateGolden && !compare {
		t.Fatalf("golden digests hold amd64 float bits; cannot rewrite them on %s", runtime.GOARCH)
	}
	names := make([]string, 0, len(outputs))
	for name := range outputs {
		names = append(names, name)
	}
	slices.Sort(names)
	var file strings.Builder
	for _, name := range names {
		sum := sha256.Sum256(outputs[name])
		digest := hex.EncodeToString(sum[:])
		fmt.Fprintf(&file, "%s  %s\n", digest, name)
		switch {
		case *updateGolden:
		case !compare:
			t.Logf("%s digest not compared on %s: Go fuses x*y+z into FMA there", name, runtime.GOARCH)
		case golden[name] == "":
			t.Errorf("no golden digest for %q (run with -update-golden)", name)
		case golden[name] != digest:
			t.Errorf("%s digest %s, golden %s: the output moved", name, digest, golden[name])
		}
	}
	if *updateGolden {
		if err := os.WriteFile(frameDigestPath, []byte(file.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// readFrameDigests loads the golden digest file; a missing file reads as
// empty.
func readFrameDigests(t *testing.T) map[string]string {
	t.Helper()
	digests := map[string]string{}
	data, err := os.ReadFile(frameDigestPath)
	if os.IsNotExist(err) {
		return digests
	} else if err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		if f := strings.Fields(sc.Text()); len(f) == 2 {
			digests[f[1]] = f[0]
		}
	}
	return digests
}
