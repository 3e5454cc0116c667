package codec

import (
	"earthplus/internal/eperr"
	"earthplus/internal/raster"
)

// ROI (region-of-interest) coding packs the marked tiles of a plane into a
// compact near-square mosaic and encodes only that. Compared to zeroing
// the non-ROI area of the full frame, the mosaic wastes no bits on the
// artificial zero/content boundaries (whose wavelet ringing would dominate
// small tiles) and every coefficient the budget buys belongs to ROI
// content. The tile order inside the mosaic is the ascending tile index of
// the mask, so encoder and decoder need only share the mask.

// mosaicDims returns the tile geometry of the packed mosaic for n tiles.
// It is raster.MosaicDims, the shared tile-geometry helper.
func mosaicDims(n int) (cols, rows int) {
	return raster.MosaicDims(n)
}

// EncodeROIPlane encodes the tiles marked in roi from the row-major plane
// (geometry roi.Grid). opt.BudgetBytes applies to the emitted codestream.
// An empty ROI yields a nil stream.
func EncodeROIPlane(plane []float32, roi *raster.TileMask, opt Options) ([]byte, error) {
	g := roi.Grid
	if len(plane) != g.ImageW*g.ImageH {
		return nil, eperr.New(eperr.BadImage, "codec", "plane length %d does not match grid %dx%d",
			len(plane), g.ImageW, g.ImageH)
	}
	n := roi.Count()
	if n == 0 {
		return nil, nil
	}
	cols, rows := mosaicDims(n)
	mw, mh := cols*g.Tile, rows*g.Tile
	mosaicBuf := getPlaneBuf(mw * mh)
	defer putPlaneBuf(mosaicBuf)
	mosaic := *mosaicBuf
	clear(mosaic)
	slot := 0
	for t, keep := range roi.Set {
		if !keep {
			continue
		}
		x0, y0, _, _ := g.Bounds(t)
		sx, sy := (slot%cols)*g.Tile, (slot/cols)*g.Tile
		for dy := 0; dy < g.Tile; dy++ {
			srcRow := (y0 + dy) * g.ImageW
			dstRow := (sy + dy) * mw
			copy(mosaic[dstRow+sx:dstRow+sx+g.Tile], plane[srcRow+x0:srcRow+x0+g.Tile])
		}
		slot++
	}
	return EncodePlane(mosaic, mw, mh, opt)
}

// EncodeROIBand codes the tiles of one band marked in roi at bpp bits
// per ROI pixel: EncodeROIPlane under the BandBudget of the ROI's pixels.
// A nil or empty ROI yields a nil stream, an absent band.
func EncodeROIBand(plane []float32, roi *raster.TileMask, bpp float64, opt Options) ([]byte, error) {
	if roi == nil || roi.Count() == 0 {
		return nil, nil
	}
	opt.BudgetBytes = BandBudget(bpp, roi.Count()*roi.Grid.Tile*roi.Grid.Tile)
	return EncodeROIPlane(plane, roi, opt)
}

// decodeROIPlane decodes a stream produced by EncodeROIPlane and scatters
// the tiles marked in roi but not in reject (nil = none), clamped to
// [0,1], back into dst (full-plane row-major, geometry roi.Grid).
func decodeROIPlane(dst []float32, roi, reject *raster.TileMask, data []byte) error {
	g := roi.Grid
	if len(dst) != g.ImageW*g.ImageH {
		return eperr.New(eperr.BadImage, "codec", "dst length %d does not match grid %dx%d",
			len(dst), g.ImageW, g.ImageH)
	}
	n := roi.Count()
	cols, rows := mosaicDims(n)
	mosaicBuf := getPlaneBuf(cols * g.Tile * rows * g.Tile)
	defer putPlaneBuf(mosaicBuf)
	mosaic, mw, mh, err := decodePlane(data, 0, *mosaicBuf)
	if err != nil {
		return err
	}
	if mw != cols*g.Tile || mh != rows*g.Tile {
		return eperr.New(eperr.BadCodestream, "codec", "mosaic %dx%d does not match ROI of %d tiles", mw, mh, n)
	}
	slot := -1
	for t, keep := range roi.Set {
		if !keep {
			continue
		}
		slot++
		if reject != nil && reject.Set[t] {
			continue
		}
		x0, y0, _, _ := g.Bounds(t)
		sx, sy := (slot%cols)*g.Tile, (slot/cols)*g.Tile
		for dy := 0; dy < g.Tile; dy++ {
			srcRow := (sy + dy) * mw
			row := dst[(y0+dy)*g.ImageW+x0 : (y0+dy)*g.ImageW+x0+g.Tile]
			copy(row, mosaic[srcRow+sx:srcRow+sx+g.Tile])
			raster.ClampPlane(row)
		}
	}
	return nil
}

// ROIMaskBytes is the metadata cost of shipping a tile mask alongside an
// ROI stream (one bit per tile).
func ROIMaskBytes(g raster.TileGrid) int64 {
	return int64((g.NumTiles() + 7) / 8)
}
