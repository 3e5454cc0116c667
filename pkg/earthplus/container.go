package earthplus

import (
	"context"
	"encoding/binary"
	"fmt"
	"io"

	"earthplus/internal/codec"
	"earthplus/internal/container"
	"earthplus/internal/eperr"
)

// Codestream is one framed multi-band codestream — the wire unit of the
// API. See the package documentation for the frame layout.
type Codestream = container.Codestream

// Container frame identity, exposed for protocol negotiation (the
// serving layer reports both from /v1/info).
const (
	ContainerMagic   = container.Magic
	ContainerVersion = container.Version
	// ContainerVersionTiled is the frame version carried by frames whose
	// bands use the tiled (EPT1) codestream profile.
	ContainerVersionTiled = container.VersionTiled
)

// PackCodestream frames a per-band codestream set (nil = absent band)
// into one Codestream. The inverse is Codestream.Split.
func PackCodestream(bands [][]byte) Codestream { return container.Pack(bands) }

// ReadCodestream assembles one frame from a stream, validating its CRC.
// It returns io.EOF unwrapped when the stream ends cleanly before a frame
// starts.
func ReadCodestream(r io.Reader) (Codestream, error) { return container.ReadFrom(r) }

// minBandBudget is the smallest per-band byte budget Encode accepts — the
// codec's own rate-control floor, shared with every internal encode site.
const minBandBudget = codec.MinBudgetBytes

// EncodeOptions configures an Encoder.
type EncodeOptions struct {
	// BPP is the bits-per-pixel budget per band (the paper's γ applied
	// image-wide). Zero encodes every bit plane (highest lossy quality).
	BPP float64
	// Lossless switches to the reversible integer 5/3 path: decoding
	// reproduces the image exactly at 16-bit sample precision. BPP is
	// ignored (lossless has no rate control), and so is Tiled — the
	// lossless profile is monolithic.
	Lossless bool
	// Tiled selects the tiled (EPT1) codestream profile: each band is
	// coded as independent 64x64 tiles with a per-tile index, so regions
	// decode in time proportional to the tiles they touch
	// (DecodeFrameRegion) and the wire frame carries the v2 container
	// version. Encoding is also substantially faster than the monolithic
	// profile (run-length Golomb-Rice tile coding instead of one
	// image-wide bit-plane pass), at a modest rate-distortion cost.
	Tiled bool
	// Levels is the DWT decomposition depth (0 = the default 5).
	Levels int
	// Parallelism bounds the bands coded concurrently per image (0 =
	// the codec package default).
	Parallelism int
}

// codecOptions lowers EncodeOptions onto codec plane options for a
// w x h plane, validating the budget floor.
func (o EncodeOptions) codecOptions(w, h int) (codec.Options, error) {
	opt := codec.DefaultOptions()
	if o.Levels > 0 {
		opt.Levels = o.Levels
	}
	opt.Parallelism = o.Parallelism
	opt.Tiled = o.Tiled && !o.Lossless
	if o.BPP < 0 {
		return opt, eperr.New(eperr.BadConfig, "earthplus", "negative BPP %v", o.BPP)
	}
	if o.BPP > 0 && !o.Lossless {
		opt.BudgetBytes = codec.BudgetForBPP(o.BPP, w, h)
		if opt.BudgetBytes < minBandBudget {
			return opt, eperr.New(eperr.BudgetTooSmall, "earthplus",
				"%.4f bpp on a %dx%d plane is a %d-byte band budget; the floor is %d",
				o.BPP, w, h, opt.BudgetBytes, minBandBudget)
		}
	}
	return opt, nil
}

// Encoder writes container frames — one per image — to an io.Writer.
type Encoder struct {
	w    io.Writer
	opts EncodeOptions
}

// NewEncoder returns an Encoder writing frames with the given options.
func NewEncoder(w io.Writer, opts EncodeOptions) *Encoder {
	return &Encoder{w: w, opts: opts}
}

// Encode compresses img into one container frame and writes it. Bands
// are coded concurrently; ctx cancellation is observed between bands and
// reported as a CodeCanceled error without writing a partial frame.
func (e *Encoder) Encode(ctx context.Context, img *Image) error {
	frame, err := EncodeFrame(ctx, img, e.opts)
	if err != nil {
		return err
	}
	if _, err := frame.WriteTo(e.w); err != nil {
		return fmt.Errorf("earthplus: writing frame: %w", err)
	}
	return nil
}

// EncodeFrame compresses img into one container frame in memory — the
// Encoder without the writer, for callers that transport frames
// themselves.
func EncodeFrame(ctx context.Context, img *Image, opts EncodeOptions) (Codestream, error) {
	if img == nil || img.NumBands() == 0 || img.Width <= 0 || img.Height <= 0 {
		return nil, eperr.New(eperr.BadImage, "earthplus", "nil or empty image")
	}
	if img.NumBands() > container.MaxBands {
		return nil, eperr.New(eperr.BadImage, "earthplus",
			"%d bands exceeds the %d-band frame bound", img.NumBands(), container.MaxBands)
	}
	opt, err := opts.codecOptions(img.Width, img.Height)
	if err != nil {
		return nil, err
	}
	return codec.EncodeFrame(img.NumBands(), opts.Parallelism, func(b int) ([]byte, error) {
		if err := ctx.Err(); err != nil {
			return nil, eperr.Wrap(eperr.Canceled, "earthplus", err)
		}
		if opts.Lossless {
			return codec.EncodePlaneLossless(img.Plane(b), img.Width, img.Height, opt.Levels)
		}
		return codec.EncodePlane(img.Plane(b), img.Width, img.Height, opt)
	})
}

// Decoder reads container frames from an io.Reader and decodes them back
// to images.
type Decoder struct {
	r io.Reader
	// Bands optionally names the decoded bands; when nil or mismatched in
	// count, generic metadata is synthesised (frames do not carry band
	// descriptions).
	Bands []BandInfo
	// MaxLayers truncates lossy decodes to the first quality layers
	// (<= 0 = all) — the layered codec's degraded-downlink mode.
	MaxLayers int
}

// NewDecoder returns a Decoder reading frames from r.
func NewDecoder(r io.Reader) *Decoder { return &Decoder{r: r} }

// Decode reads and decodes the stream's next frame. It returns io.EOF
// unwrapped at the clean end of the stream, and a CodeBadCodestream
// error for malformed frames. ctx cancellation is observed between bands.
func (d *Decoder) Decode(ctx context.Context) (*Image, error) {
	frame, err := container.ReadFrom(d.r)
	if err != nil {
		return nil, err
	}
	return DecodeFrame(ctx, frame, d.Bands, d.MaxLayers)
}

// DecodeFrame decodes one in-memory container frame — the Decoder
// without the reader. Every band must be present: an image frame with
// holes is malformed (ROI'd simulation downloads are applied by the
// ground segment, not decoded standalone).
func DecodeFrame(ctx context.Context, frame Codestream, bandInfo []BandInfo, maxLayers int) (*Image, error) {
	return codec.DecodeFrame(ctx, frame, bandInfo, maxLayers, 0)
}

// DecodeFrameRegion decodes the sub-rectangle [x,x+w) x [y,y+h) of an
// in-memory container frame, clipped to the plane bounds, returning an
// image of the clipped region. On the tiled (EPT1) profile only the
// tiles intersecting the rectangle are entropy-decoded — O(tiles
// touched), independent of the frame size; monolithic and lossless
// frames fall back to a full decode plus crop, so the call is correct on
// every profile. Quality-layer truncation does not apply to region
// decodes.
func DecodeFrameRegion(ctx context.Context, frame Codestream, bandInfo []BandInfo, x, y, w, h int) (*Image, error) {
	return codec.DecodeFrameRegion(ctx, frame, bandInfo, x, y, w, h, 0)
}

// FrameTiled reports whether a frame carries the tiled (EPT1) codestream
// profile, without CRC-validating or decoding any payload.
func FrameTiled(frame Codestream) bool { return frame.Tiled() }

// FrameDims parses a frame's structure and every band's codec header and
// reports the plane geometry and band count without CRC-validating or
// decoding any payload — the cheap pre-flight for resource limits before
// committing to a full DecodeFrame. Every present band must claim the
// same geometry, so the reported width and height bound the decode work
// of the whole frame, not just its first band.
func FrameDims(frame Codestream) (width, height, bands int, err error) {
	streams, err := frame.SplitNoCRC()
	if err != nil {
		return 0, 0, 0, err
	}
	seen := false
	for b, s := range streams {
		if s == nil {
			continue
		}
		// Every payload layout (lossy "EPC1", tiled "EPT1", lossless
		// "EPL1") carries uint16 width at offset 4 and height at offset 6.
		if len(s) < 8 {
			return 0, 0, 0, eperr.New(eperr.BadCodestream, "earthplus", "band %d payload of %d bytes has no header", b, len(s))
		}
		w, h := int(binary.LittleEndian.Uint16(s[4:])), int(binary.LittleEndian.Uint16(s[6:]))
		if !seen {
			width, height, seen = w, h, true
		} else if w != width || h != height {
			return 0, 0, 0, eperr.New(eperr.BadCodestream, "earthplus",
				"band %d claims %dx%d; earlier bands claim %dx%d", b, w, h, width, height)
		}
	}
	if !seen {
		return 0, 0, 0, eperr.New(eperr.BadCodestream, "earthplus", "frame carries no band payloads")
	}
	return width, height, len(streams), nil
}
