package experiments

import (
	"fmt"
	"io"
	"time"

	"earthplus/internal/cloud"
	"earthplus/internal/codec"
	"earthplus/internal/illum"
	"earthplus/internal/metrics"
	"earthplus/internal/orbit"
	"earthplus/internal/raster"
	"earthplus/internal/sat"
	"earthplus/internal/scene"
)

// paperRefDownsample is the per-axis reference downsampling at Doves
// image scale (4000 -> ~78, giving the paper's 2601x ratio, §4.3). The
// storage projection uses it because Fig 15 is a spec-scale estimate.
const paperRefDownsample = 51

// Fig15Result is the on-board storage breakdown (paper Fig 15: Kodan
// 255 GB, SatRoI 30 GB, Earth+ 24 GB).
type Fig15Result struct {
	Systems  []string
	Captured []float64 // GB
	Refs     []float64 // GB
}

// Fig15 projects on-board storage at Doves scale from fractions measured
// in simulation. The model:
//
//   - every system retains captured data for two contact intervals
//     (Appendix A);
//   - Kodan stores the kept (non-dropped, cloud-free) areas raw, since its
//     per-application products are produced at downlink time;
//   - the reference-based systems store only their changed areas, already
//     encoded at γ bits per pixel;
//   - SatRoI keeps full-resolution references for the areas it is about
//     to photograph (one swath interval);
//   - Earth+ keeps references for every location of a revisit cycle
//     (Appendix A's 160a km²) but downsampled at the paper's 2601x.
func Fig15(sc Scale) (*Fig15Result, error) {
	mkEnv, theta := datasetEnv(sc, RichContent)
	runs, err := threeSystems(sc, mkEnv, theta, fig12Gamma, nil)
	if err != nil {
		return nil, err
	}
	spec := orbit.DovesSpec()

	imageAreaKm2 := float64(spec.ImageWidth) * spec.GSDMeters / 1000 *
		(float64(spec.ImageHeight) * spec.GSDMeters / 1000)
	const earthSurfaceKm2 = 510.1e6
	imagesPerDay := earthSurfaceKm2 / float64(spec.RevisitDays) / imageAreaKm2
	rawHeldGB := 2 * imagesPerDay / float64(spec.ContactsPerDay) *
		float64(spec.RawImageBytes) / float64(1<<30)
	aKm2 := spec.DownloadableKm2PerContact()
	encRatio := fig12Gamma / 16 // γ bits per pixel vs 16-bit raw samples

	stats := func(name string) (keptFrac, tileFrac float64) {
		s := runs[name].sum
		kept := 1 - float64(s.Dropped)/float64(s.Captures)
		return kept, s.MeanTileFrac
	}

	res := &Fig15Result{}
	// Kodan: raw retention of kept clear area.
	kept, frac := stats("Kodan")
	res.Systems = append(res.Systems, "Kodan")
	res.Captured = append(res.Captured, rawHeldGB*kept*frac)
	res.Refs = append(res.Refs, 0)
	// SatRoI: encoded changed areas + raw full-res refs for one swath.
	kept, frac = stats("SatRoI")
	res.Systems = append(res.Systems, "SatRoI")
	res.Captured = append(res.Captured, rawHeldGB*kept*frac*encRatio)
	res.Refs = append(res.Refs, 2*aKm2*spec.MBPerKm2/1024)
	// Earth+: encoded changed areas + heavily downsampled refs for the
	// whole revisit cycle.
	kept, frac = stats("Earth+")
	res.Systems = append(res.Systems, "Earth+")
	res.Captured = append(res.Captured, rawHeldGB*kept*frac*encRatio)
	res.Refs = append(res.Refs,
		spec.RefLocationFactor*aKm2*spec.MBPerKm2/1024/float64(paperRefDownsample*paperRefDownsample))
	return res, nil
}

// ID implements Result.
func (r *Fig15Result) ID() string { return "Figure 15" }

// Render implements Result.
func (r *Fig15Result) Render(w io.Writer) error {
	rows := [][]string{{"system", "captured (GB)", "reference (GB)", "total (GB)"}}
	var totals []float64
	for i, name := range r.Systems {
		total := r.Captured[i] + r.Refs[i]
		totals = append(totals, total)
		rows = append(rows, []string{
			name,
			fmt.Sprintf("%.0f", r.Captured[i]),
			fmt.Sprintf("%.1f", r.Refs[i]),
			fmt.Sprintf("%.0f", total),
		})
	}
	metrics.Table(w, rows)
	metrics.Bar(w, "total on-board storage:", r.Systems, totals, "GB", 40)
	fmt.Fprintln(w, "(paper: Kodan 255 GB, SatRoI 30 GB, Earth+ 24 GB — Earth+ lowest, Kodan far above)")
	return nil
}

// Fig16Result is the per-image on-board runtime breakdown (paper Fig 16:
// Earth+ lowest; Kodan dominated by its expensive cloud detector).
type Fig16Result struct {
	Systems   []string
	CloudSec  []float64
	ChangeSec []float64
	EncodeSec []float64
}

// Fig16 measures this machine's component runtimes on a standard capture:
// the encode shared by all systems, the cheap versus accurate detectors,
// and change detection at full versus detection resolution.
func Fig16(sc Scale) (*Fig16Result, error) {
	cfg := scene.LargeConstellationSampled(sc.Size)
	s := scene.New(cfg)
	grid := s.Grid()
	cap := s.CaptureImage(0, sc.EvalStart, 0)
	defer s.ReleaseCapture(cap)
	ref := s.GroundTruth(0, sc.EvalStart-5)
	refLow, err := ref.Downsample(4)
	if err != nil {
		return nil, err
	}
	const reps = 3

	timeIt := func(f func() error) (float64, error) {
		var total time.Duration
		for i := 0; i < reps; i++ {
			t0 := time.Now()
			if err := f(); err != nil {
				return 0, err
			}
			total += time.Since(t0)
		}
		return total.Seconds() / reps, nil
	}

	// Shared γ encode over all non-cloudy tiles.
	all := raster.NewTileMask(grid)
	all.SetAll()
	roi := make([]*raster.TileMask, len(s.Bands()))
	for b := range roi {
		roi[b] = all
	}
	encodeSec, err := timeIt(func() error {
		_, err := sat.EncodeROI(cap.Image, roi, fig12Gamma, codec.DefaultOptions())
		return err
	})
	if err != nil {
		return nil, err
	}

	cheap := cloud.DefaultCheap(s.Bands())
	cheapSec, err := timeIt(func() error { cheap.Detect(cap.Image); return nil })
	if err != nil {
		return nil, err
	}
	accurate := cloud.DefaultTemporal(s.Bands())
	accSec, err := timeIt(func() error { accurate.DetectWithReference(cap.Image, ref); return nil })
	if err != nil {
		return nil, err
	}

	// Change detection at detection resolution (Earth+) vs full resolution
	// (SatRoI), both including the illumination fit.
	pipe := &sat.Pipeline{
		Bands: s.Bands(), Grid: grid, Downsample: 4,
		CloudDet: cheap, Theta: 0.008, DropCoverage: 1.1, CloudTileFrac: 0.25,
	}
	changeLowSec, err := timeIt(func() error {
		_, err := pipe.Process(cap.Image, &sat.Ref{Image: refLow})
		return err
	})
	if err != nil {
		return nil, err
	}
	// The pipeline includes cheap detection; subtract it so the change
	// column isolates detection work.
	changeLowSec -= cheapSec
	if changeLowSec < 0 {
		changeLowSec = 0
	}
	// SatRoI's full-resolution path: per-band robust illumination fit
	// against the full-res reference, then full-res tile differencing.
	work := cap.Image.Clone()
	changeFullSec, err := timeIt(func() error {
		for b := range s.Bands() {
			model, _ := illum.FitRobust(ref.Plane(b), work.Plane(b), nil, 2, 0.2)
			model.Normalize(work.Plane(b))
			raster.TileMeanAbsDiff(ref, work, b, grid)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	return &Fig16Result{
		Systems:   []string{"Kodan", "SatRoI", "Earth+"},
		CloudSec:  []float64{accSec, cheapSec, cheapSec},
		ChangeSec: []float64{0, changeFullSec, changeLowSec},
		EncodeSec: []float64{encodeSec, encodeSec, encodeSec},
	}, nil
}

// ID implements Result.
func (r *Fig16Result) ID() string { return "Figure 16" }

// Render implements Result.
func (r *Fig16Result) Render(w io.Writer) error {
	rows := [][]string{{"system", "cloud (ms)", "change (ms)", "encode (ms)", "total (ms)"}}
	var totals []float64
	for i, name := range r.Systems {
		total := r.CloudSec[i] + r.ChangeSec[i] + r.EncodeSec[i]
		totals = append(totals, total*1e3)
		rows = append(rows, []string{
			name,
			fmt.Sprintf("%.1f", r.CloudSec[i]*1e3),
			fmt.Sprintf("%.1f", r.ChangeSec[i]*1e3),
			fmt.Sprintf("%.1f", r.EncodeSec[i]*1e3),
			fmt.Sprintf("%.1f", total*1e3),
		})
	}
	metrics.Table(w, rows)
	metrics.Bar(w, "runtime per image:", r.Systems, totals, "ms", 40)
	fmt.Fprintln(w, "(paper: Earth+ lowest; Kodan's accurate cloud detector costs ~3x the cheap one;")
	fmt.Fprintln(w, " absolute times are this machine's, only the ordering is comparable)")
	return nil
}
