package codec

import (
	"bytes"
	"context"
	"fmt"

	"earthplus/internal/container"
	"earthplus/internal/eperr"
	"earthplus/internal/raster"
)

// Frames are the multi-band wire unit: one container frame per image,
// band b's codec stream in slot b. This file is the one place an image
// becomes a frame and a frame becomes an image. The on-board store, the
// ground's mirror, the downlink, the uplink and the public facade all
// code frames through it, so they agree byte for byte.

// BandBudget is the rate rule of every multi-band encode: bpp bits per
// pixel (the paper's γ) over pixels samples, in whole bytes, floored at
// MinBudgetBytes.
func BandBudget(bpp float64, pixels int) int {
	return max(int(bpp*float64(pixels)/8), MinBudgetBytes)
}

// EncodeFrame codes bands [0, n) with encodeBand on a worker pool of
// Workers(parallelism, n) goroutines and packs the streams into one
// container frame in band order, so the frame is byte-identical at any
// worker count. A nil stream is an absent band. When bands fail, the
// lowest-numbered band's error is returned.
func EncodeFrame(n, parallelism int, encodeBand func(b int) ([]byte, error)) (container.Codestream, error) {
	streams := make([][]byte, n)
	errs := make([]error, n)
	ParallelBands(parallelism, n, func(b int) {
		data, err := encodeBand(b)
		if err != nil {
			errs[b] = fmt.Errorf("codec: band %d: %w", b, err)
			return
		}
		streams[b] = data
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return container.Pack(streams), nil
}

// DecodeFrame decodes an image frame: every band present, all of one
// codec profile and one geometry. maxLayers > 0 truncates lossy bands to
// their first quality layers. bands names the result's bands; when its
// length differs from the frame's band count, the bands are named band0,
// band1, and so on. Band 0 decodes first and fixes the geometry; bands
// 1..n-1 then decode straight into their image planes on a pool of
// Workers(parallelism, n-1) goroutines, checking ctx before each band.
// Each band is clamped to [0,1] by the worker that decodes it.
func DecodeFrame(ctx context.Context, frame container.Codestream, bands []raster.BandInfo, maxLayers, parallelism int) (*raster.Image, error) {
	return decodeFrame(ctx, frame, bands, parallelism, func(data []byte, dst []float32) ([]float32, int, int, error) {
		return decodeStream(data, maxLayers, dst)
	})
}

// DecodeFrameRegion is DecodeFrame restricted to the rectangle
// [x,x+w) x [y,y+h), clipped to the plane: each band decodes as
// DecodeRegion does, so a tiled frame touches only the tiles the
// rectangle intersects.
func DecodeFrameRegion(ctx context.Context, frame container.Codestream, bands []raster.BandInfo, x, y, w, h, parallelism int) (*raster.Image, error) {
	return decodeFrame(ctx, frame, bands, parallelism, func(data []byte, dst []float32) ([]float32, int, int, error) {
		return decodeRegion(data, x, y, w, h, dst)
	})
}

// decodeFrame is the one frame decoder behind DecodeFrame and
// DecodeFrameRegion. decode reconstructs one band stream into dst when
// dst has the capacity, and reports the geometry it decoded.
func decodeFrame(ctx context.Context, frame container.Codestream, bands []raster.BandInfo, parallelism int,
	decode func(data []byte, dst []float32) ([]float32, int, int, error)) (*raster.Image, error) {
	streams, err := frame.Split()
	if err != nil {
		return nil, err
	}
	if len(streams) == 0 {
		return nil, eperr.New(eperr.BadCodestream, "codec", "frame carries no bands")
	}
	for b, s := range streams {
		if s == nil {
			return nil, eperr.New(eperr.BadCodestream, "codec", "image frame is missing band %d", b)
		}
		if len(s) < 4 {
			return nil, eperr.New(eperr.BadCodestream, "codec", "band %d payload is %d bytes", b, len(s))
		}
		if b > 0 && !bytes.Equal(s[:4], streams[0][:4]) {
			return nil, eperr.New(eperr.BadCodestream, "codec", "band %d mixes codec modes within one frame", b)
		}
	}
	if len(bands) != len(streams) {
		bands = make([]raster.BandInfo, len(streams))
		for b := range bands {
			bands[b].Name = fmt.Sprintf("band%d", b)
		}
	}
	plane0, w, h, err := decode(streams[0], nil)
	if err != nil {
		return nil, fmt.Errorf("codec: band 0: %w", err)
	}
	im := raster.New(w, h, bands)
	copy(im.Plane(0), plane0)
	raster.ClampPlane(im.Plane(0))
	errs := make([]error, len(streams))
	ParallelBands(parallelism, len(streams)-1, func(i int) {
		b := i + 1
		if err := ctx.Err(); err != nil {
			errs[b] = eperr.Wrap(eperr.Canceled, "codec", err)
			return
		}
		// Cap the plane at its own length: the planes share one backing
		// array, and a band claiming a larger geometry must not spill
		// into its neighbour.
		p := im.Plane(b)
		_, bw, bh, err := decode(streams[b], p[:len(p):len(p)])
		if err != nil {
			errs[b] = fmt.Errorf("codec: band %d: %w", b, err)
		} else if bw != w || bh != h {
			errs[b] = eperr.New(eperr.BadCodestream, "codec",
				"band %d geometry %dx%d differs from band 0's %dx%d", b, bw, bh, w, h)
		} else {
			raster.ClampPlane(p)
		}
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return im, nil
}

// DecodeROIFrame validates an ROI frame (one EncodeROIPlane stream per
// band, absent where the band sent nothing) and scatters each present
// band's tiles, clamped to [0,1], into the same band of dst. rois[b] is
// band b's ROI mask. Tiles marked in reject are decoded but not written,
// and dst's other tiles are left untouched. Bands decode on a pool of
// Workers(parallelism, n) goroutines, each into its own plane of dst, so
// dst is the same at any worker count; when bands fail, the
// lowest-numbered band's error is returned. Callers that already run on
// a worker of their own pass 1.
func DecodeROIFrame(frame container.Codestream, rois []*raster.TileMask, reject *raster.TileMask, dst *raster.Image, parallelism int) error {
	streams, err := frame.Split()
	if err != nil {
		return err
	}
	if len(streams) != len(rois) {
		return eperr.New(eperr.BadCodestream, "codec",
			"ROI frame carries %d bands for %d ROI masks", len(streams), len(rois))
	}
	errs := make([]error, len(streams))
	ParallelBands(parallelism, len(streams), func(b int) {
		if streams[b] == nil || rois[b] == nil {
			return
		}
		if err := decodeROIPlane(dst.Plane(b), rois[b], reject, streams[b]); err != nil {
			errs[b] = fmt.Errorf("codec: band %d: %w", b, err)
		}
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// decodeStream reconstructs one band stream of any profile, into dst
// when it has the capacity: lossless streams open with "EPL1", and
// decodePlane tells the lossy profiles apart.
func decodeStream(data []byte, maxLayers int, dst []float32) ([]float32, int, int, error) {
	if len(data) >= 4 && string(data[:4]) == losslessMagic {
		return decodePlaneLossless(data, dst)
	}
	return decodePlane(data, maxLayers, dst)
}
