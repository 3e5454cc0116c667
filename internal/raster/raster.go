// Package raster provides the multi-band imagery substrate used throughout
// the Earth+ reproduction: float32 pixel planes normalised to [0,1], band
// metadata mirroring Sentinel-2 and PlanetScope instruments, a 64x64 tile
// grid, resampling, and the PSNR/MSE quality metrics the paper reports.
package raster

import (
	"fmt"
	"math"
)

// Image is a multi-band raster. Pixel values are float32 in [0,1] (the paper
// normalises pixel values to [0,1] before change detection, §3 footnote 5).
// Band b's plane is Pix[b], stored row-major: Pix[b][y*Width+x].
type Image struct {
	Width  int
	Height int
	Bands  []BandInfo
	Pix    [][]float32
}

// New allocates a zeroed image with the given geometry and band set.
// It panics on non-positive dimensions; images are internal constructions,
// so a bad size is a programming error, not a runtime condition.
func New(width, height int, bands []BandInfo) *Image {
	if width <= 0 || height <= 0 {
		panic(fmt.Sprintf("raster: invalid dimensions %dx%d", width, height))
	}
	if len(bands) == 0 {
		panic("raster: image needs at least one band")
	}
	pix := make([][]float32, len(bands))
	backing := make([]float32, width*height*len(bands))
	for b := range pix {
		pix[b], backing = backing[:width*height], backing[width*height:]
	}
	return &Image{Width: width, Height: height, Bands: bands, Pix: pix}
}

// NumBands reports how many spectral bands the image carries.
func (im *Image) NumBands() int { return len(im.Bands) }

// At returns the value of band b at (x, y).
func (im *Image) At(b, x, y int) float32 { return im.Pix[b][y*im.Width+x] }

// Set stores v into band b at (x, y).
func (im *Image) Set(b, x, y int, v float32) { im.Pix[b][y*im.Width+x] = v }

// Plane returns band b's backing slice (row-major, length Width*Height).
func (im *Image) Plane(b int) []float32 { return im.Pix[b] }

// Clone returns a deep copy of the image.
func (im *Image) Clone() *Image {
	out := New(im.Width, im.Height, im.Bands)
	for b := range im.Pix {
		copy(out.Pix[b], im.Pix[b])
	}
	return out
}

// CopyFrom overwrites every plane of im with src's pixels. The images must
// have the same shape; it panics otherwise (like Clone, copying is an
// internal construction step, so a shape mismatch is a programming error).
func (im *Image) CopyFrom(src *Image) {
	if !im.SameShape(src) {
		panic(fmt.Sprintf("raster: CopyFrom shape mismatch %dx%dx%d vs %dx%dx%d",
			im.Width, im.Height, len(im.Bands), src.Width, src.Height, len(src.Bands)))
	}
	for b := range im.Pix {
		copy(im.Pix[b], src.Pix[b])
	}
}

// CloneBand returns a single-band image copied from band b.
func (im *Image) CloneBand(b int) *Image {
	out := New(im.Width, im.Height, []BandInfo{im.Bands[b]})
	copy(out.Pix[0], im.Pix[b])
	return out
}

// Fill sets every pixel of band b to v.
func (im *Image) Fill(b int, v float32) {
	p := im.Pix[b]
	for i := range p {
		p[i] = v
	}
}

// Clamp bounds every pixel of every band into [0,1].
func (im *Image) Clamp() {
	for _, p := range im.Pix {
		ClampPlane(p)
	}
}

// ClampPlane bounds every sample of p into [0,1], in place. The explicit
// comparisons keep -0, which min/max would not.
func ClampPlane(p []float32) {
	for i, v := range p {
		if v < 0 {
			p[i] = 0
		} else if v > 1 {
			p[i] = 1
		}
	}
}

// SameShape reports whether the two images have identical geometry and band
// count (band metadata is not compared).
func (im *Image) SameShape(other *Image) bool {
	return other != nil && im.Width == other.Width && im.Height == other.Height &&
		len(im.Bands) == len(other.Bands)
}

// Equal reports whether two images have the same shape and bit-identical
// pixels in every band (band metadata is not compared). Exact-reproduction
// invariants (reference mirrors, pooled synthesis) are asserted with it.
func (im *Image) Equal(other *Image) bool {
	if !im.SameShape(other) {
		return false
	}
	for b := range im.Pix {
		p, q := im.Pix[b], other.Pix[b]
		for i, v := range p {
			if q[i] != v {
				return false
			}
		}
	}
	return true
}

// Downsample box-averages the image by an integer factor per axis. The image
// dimensions must be divisible by factor. Earth+ downsamples both reference
// images (uplink compression, §4.3) and captures (on-board change and cloud
// detection, §5).
func (im *Image) Downsample(factor int) (*Image, error) {
	if factor <= 0 {
		return nil, fmt.Errorf("raster: downsample factor %d must be positive", factor)
	}
	if factor == 1 {
		return im.Clone(), nil
	}
	if im.Width%factor != 0 || im.Height%factor != 0 {
		return nil, fmt.Errorf("raster: %dx%d not divisible by downsample factor %d",
			im.Width, im.Height, factor)
	}
	w, h := im.Width/factor, im.Height/factor
	out := New(w, h, im.Bands)
	inv := 1 / float32(factor*factor)
	for b := range im.Pix {
		src, dst := im.Pix[b], out.Pix[b]
		for oy := 0; oy < h; oy++ {
			for ox := 0; ox < w; ox++ {
				var sum float32
				for dy := 0; dy < factor; dy++ {
					row := (oy*factor + dy) * im.Width
					for dx := 0; dx < factor; dx++ {
						sum += src[row+ox*factor+dx]
					}
				}
				dst[oy*w+ox] = sum * inv
			}
		}
	}
	return out, nil
}

// Upsample replicates each pixel into a factor x factor block (nearest
// neighbour). It is the inverse geometry of Downsample.
func (im *Image) Upsample(factor int) (*Image, error) {
	if factor <= 0 {
		return nil, fmt.Errorf("raster: upsample factor %d must be positive", factor)
	}
	if factor == 1 {
		return im.Clone(), nil
	}
	w, h := im.Width*factor, im.Height*factor
	out := New(w, h, im.Bands)
	for b := range im.Pix {
		src, dst := im.Pix[b], out.Pix[b]
		for y := 0; y < h; y++ {
			srcRow := (y / factor) * im.Width
			dstRow := y * w
			for x := 0; x < w; x++ {
				dst[dstRow+x] = src[srcRow+x/factor]
			}
		}
	}
	return out, nil
}

// CopyTile copies the pixels of tile t (under grid g) in band b from src into
// dst. Both images must have the grid's full-resolution geometry.
func CopyTile(dst, src *Image, b int, g TileGrid, t int) {
	x0, y0, x1, y1 := g.Bounds(t)
	for y := y0; y < y1; y++ {
		copy(dst.Pix[b][y*dst.Width+x0:y*dst.Width+x1], src.Pix[b][y*src.Width+x0:y*src.Width+x1])
	}
}

// ZeroTile fills tile t of band b with zeros ("cloud removal" fills cloudy
// pixels with zero, paper §5).
func ZeroTile(im *Image, b int, g TileGrid, t int) {
	x0, y0, x1, y1 := g.Bounds(t)
	for y := y0; y < y1; y++ {
		row := im.Pix[b][y*im.Width+x0 : y*im.Width+x1]
		for i := range row {
			row[i] = 0
		}
	}
}

// AbsDiffMean returns the mean absolute per-pixel difference between band b
// of a and band b of x over the whole plane.
func AbsDiffMean(a, x *Image, b int) float64 {
	pa, px := a.Pix[b], x.Pix[b]
	var sum float64
	for i := range pa {
		sum += math.Abs(float64(pa[i] - px[i]))
	}
	return sum / float64(len(pa))
}
