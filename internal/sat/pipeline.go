package sat

import (
	"fmt"
	"time"

	"earthplus/internal/change"
	"earthplus/internal/cloud"
	"earthplus/internal/codec"
	"earthplus/internal/container"
	"earthplus/internal/illum"
	"earthplus/internal/raster"
)

// Pipeline is the on-board change-detection pipeline of §5.
type Pipeline struct {
	Bands []raster.BandInfo
	// Grid is the full-resolution tile grid.
	Grid raster.TileGrid
	// Downsample is the per-axis factor for detection (reference images
	// are cached at this resolution).
	Downsample int
	// CloudDet is the on-board detector (cheap decision tree).
	CloudDet cloud.Detector
	// Theta is the change threshold at detection resolution (profiled).
	Theta float64
	// DropCoverage drops captures whose detected cloud cover exceeds it
	// (paper drops above 50%).
	DropCoverage float64
	// CloudTileFrac marks a tile cloudy when its cloudy-pixel fraction
	// exceeds this.
	CloudTileFrac float64
}

// Result is the pipeline's output for one capture.
type Result struct {
	// Dropped is set when detected cloud coverage exceeded DropCoverage.
	Dropped bool
	// CloudCover is the detected (not true) cloud coverage.
	CloudCover float64
	// CloudTiles marks tiles considered cloudy, on the capture's grid.
	CloudTiles *raster.TileMask
	// Changed holds, per band, the changed-tile mask on the capture's grid
	// (nil when no reference was available; the caller decides the
	// fallback).
	Changed []*raster.TileMask
	// Illum holds the per-band alignment fitted against the reference.
	Illum []illum.Model
	// CloudSec, DecodeSec and ChangeSec are the measured wall-clock costs
	// of the cloud-detection, reference-load and change-detection stages
	// (Fig 16). DecodeSec is the frame decode of a compressed store's
	// reference; loading a raw one costs nothing.
	CloudSec  float64
	DecodeSec float64
	ChangeSec float64
}

// lowGrid returns the tile grid at detection resolution.
func (p *Pipeline) lowGrid() (raster.TileGrid, error) {
	return p.Grid.Scaled(p.Downsample)
}

// Process runs the §5 pipeline on one capture against the stored
// reference ref, nil when the store has none. ref is loaded — a compressed
// store's frame decoded — only for a capture that survives the cloud drop.
func (p *Pipeline) Process(capImg *raster.Image, ref *Ref) (*Result, error) {
	if capImg.Width != p.Grid.ImageW || capImg.Height != p.Grid.ImageH {
		return nil, fmt.Errorf("sat: capture %dx%d does not match grid", capImg.Width, capImg.Height)
	}
	res := &Result{}
	// Cloud removal: detect, then drop heavily cloudy captures.
	tCloud := time.Now() //lint:deterministic wall time feeds Outcome.CloudSec, which only the repo benchmark reads
	cloudMask := p.CloudDet.Detect(capImg)
	res.CloudSec = time.Since(tCloud).Seconds() //lint:deterministic wall time feeds Outcome.CloudSec, which only the repo benchmark reads
	res.CloudCover = cloudMask.Coverage()
	res.CloudTiles = cloudMask.TileMask(p.Grid, p.CloudTileFrac)
	if res.CloudCover > p.DropCoverage {
		res.Dropped = true
		return res, nil
	}
	gLow, err := p.lowGrid()
	if err != nil {
		return nil, fmt.Errorf("sat: %w", err)
	}
	if ref == nil {
		return res, nil
	}
	tDecode := time.Now() //lint:deterministic wall time feeds DecodeWall, which only the repo benchmark reads
	refLow, err := ref.Load()
	res.DecodeSec = time.Since(tDecode).Seconds() //lint:deterministic wall time feeds DecodeWall, which only the repo benchmark reads
	if err != nil {
		return nil, err
	}
	capLow, err := capImg.Downsample(p.Downsample)
	if err != nil {
		return nil, fmt.Errorf("sat: %w", err)
	}
	if !refLow.SameShape(capLow) {
		return nil, fmt.Errorf("sat: reference %dx%d does not match detection resolution %dx%d",
			refLow.Width, refLow.Height, capLow.Width, capLow.Height)
	}
	// Clear-pixel mask at detection resolution for the illumination fit.
	tChange := time.Now() //lint:deterministic wall time feeds Outcome.ChangeSec, which only the repo benchmark reads
	clearLow := clearPixelsLow(cloudMask, p.Downsample, capLow.Width, capLow.Height)
	det := change.Detector{Theta: p.Theta}
	res.Changed = make([]*raster.TileMask, len(p.Bands))
	res.Illum = make([]illum.Model, len(p.Bands))
	for b := range p.Bands {
		model, _ := illum.FitRobust(refLow.Plane(b), capLow.Plane(b), clearLow, 2, 0.2)
		model.Normalize(capLow.Plane(b))
		res.Illum[b] = model
		// Tile indices are the same at both scales, so the cloudy tiles
		// exclude as they are and the mask moves to the capture's grid.
		changed := det.DetectBand(refLow, capLow, b, gLow, res.CloudTiles)
		changed.Grid = p.Grid
		res.Changed[b] = changed
	}
	res.ChangeSec = time.Since(tChange).Seconds() //lint:deterministic wall time feeds Outcome.ChangeSec, which only the repo benchmark reads
	return res, nil
}

// clearPixelsLow reduces a full-resolution cloud mask to a clear-pixel
// selector at detection resolution: a low-res pixel is usable when fewer
// than half of its footprint is cloudy.
func clearPixelsLow(m *cloud.Mask, factor, lw, lh int) []bool {
	out := make([]bool, lw*lh)
	half := factor * factor / 2
	for ly := 0; ly < lh; ly++ {
		for lx := 0; lx < lw; lx++ {
			n := 0
			for dy := 0; dy < factor; dy++ {
				row := (ly*factor + dy) * m.W
				for dx := 0; dx < factor; dx++ {
					if m.Bits[row+lx*factor+dx] {
						n++
					}
				}
			}
			out[ly*lw+lx] = n <= half
		}
	}
	return out
}

// EncodeROI encodes the capture for downlink: each band's ROI tiles are
// packed into a mosaic and encoded at gammaBPP bits per ROI pixel — the
// paper's constant per-tile bit budget γ (§5). Downloaded tiles carry
// their original pixel values (§3): cloud zero-filling is a detection-side
// device only, and mostly-cloudy tiles are excluded from the ROI by the
// caller. Bands whose ROI is empty travel as absent container bands.
//
// The per-band codec streams are framed into one container.Codestream —
// the wire unit every downlink consumer (ground station, HTTP serving
// layer) speaks — with the per-band bytes inside exactly what
// codec.EncodeROIBand produced.
//
// Bands are encoded concurrently by a worker pool of
// codec.Workers(opts.Parallelism, bands) goroutines, so whole-constellation
// simulations scale with the host's cores.
func EncodeROI(capImg *raster.Image, perBandROI []*raster.TileMask,
	gammaBPP float64, opts codec.Options) (container.Codestream, error) {
	frame, err := codec.EncodeFrame(len(perBandROI), opts.Parallelism, func(b int) ([]byte, error) {
		return codec.EncodeROIBand(capImg.Plane(b), perBandROI[b], gammaBPP, opts)
	})
	if err != nil {
		return nil, fmt.Errorf("sat: encoding ROI: %w", err)
	}
	return frame, nil
}

// DownlinkCharge is the downlink accounting of an EncodeROI frame: each
// band's codec payload bytes (framing excluded), their total, and the ROI
// tiles downloaded per band, averaged over the bands.
func DownlinkCharge(frame container.Codestream, perBandROI []*raster.TileMask) (perBand []int64, total int64, tilesPerBand float64, err error) {
	lens, err := frame.PerBandLens()
	if err != nil {
		return nil, 0, 0, err
	}
	perBand = make([]int64, len(lens))
	for b, n := range lens {
		perBand[b] = int64(n)
		total += int64(n)
	}
	tiles := 0
	for _, roi := range perBandROI {
		if roi != nil {
			tiles += roi.Count()
		}
	}
	return perBand, total, float64(tiles) / float64(len(perBandROI)), nil
}

// MaskOverheadBytes is the downlink metadata cost of the per-band ROI
// masks for one capture (one bit per tile per band with a non-empty ROI).
func MaskOverheadBytes(perBandROI []*raster.TileMask) int64 {
	var total int64
	for _, roi := range perBandROI {
		if roi != nil && roi.Count() > 0 {
			total += codec.ROIMaskBytes(roi.Grid)
		}
	}
	return total
}
