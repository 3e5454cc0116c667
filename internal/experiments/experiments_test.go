package experiments

import (
	"errors"
	"math"
	"strings"
	"testing"

	"earthplus/internal/eperr"
	"earthplus/internal/registry"
)

// render exercises a Result's Render without caring about the text.
func render(t *testing.T, r Result) string {
	t.Helper()
	var b strings.Builder
	if err := r.Render(&b); err != nil {
		t.Fatalf("%s render: %v", r.ID(), err)
	}
	out := b.String()
	if len(out) == 0 {
		t.Fatalf("%s rendered nothing", r.ID())
	}
	return out
}

func TestTable1(t *testing.T) {
	r := Table1()
	out := render(t, r)
	for _, want := range []string{"250 kbps", "200 Mbps", "360 GB", "6600x4400"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Table 1 missing %q:\n%s", want, out)
		}
	}
}

func TestTable2(t *testing.T) {
	r := Table2(Tiny())
	out := render(t, r)
	if !strings.Contains(out, "rich-content") || !strings.Contains(out, "large-constellation") {
		t.Fatalf("Table 2 output:\n%s", out)
	}
	if len(r.Rows) != 4 {
		t.Fatalf("Table 2 rows = %d", len(r.Rows))
	}
}

func TestFig4ChangeGrowsWithAge(t *testing.T) {
	r := Fig4(Tiny())
	if len(r.Changed) != len(r.Ages) {
		t.Fatalf("lengths: %d vs %d", len(r.Changed), len(r.Ages))
	}
	for i := 1; i < len(r.Changed); i++ {
		if r.Changed[i] < r.Changed[i-1]-0.03 {
			t.Fatalf("changed fraction not growing: %v", r.Changed)
		}
	}
	last := r.Changed[len(r.Changed)-1]
	first := r.Changed[0]
	if last < 1.5*first {
		t.Fatalf("growth too flat: %v", r.Changed)
	}
	render(t, r)
}

func TestFig5ConstellationBeatsLocal(t *testing.T) {
	r := Fig5(Tiny())
	if len(r.LocalAges) == 0 || len(r.ConstellationAges) == 0 {
		t.Fatal("no age samples")
	}
	localMean := mean(r.LocalAges)
	consMean := mean(r.ConstellationAges)
	if consMean*2 > localMean {
		t.Fatalf("constellation-wide mean %.1f not far below local %.1f", consMean, localMean)
	}
	render(t, r)
}

func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func TestFig8MissRateStaysModest(t *testing.T) {
	r := Fig8(Tiny())
	if len(r.Factors) < 2 {
		t.Fatalf("factors = %v", r.Factors)
	}
	if r.Factors[0] != 1 {
		t.Fatal("sweep must include factor 1")
	}
	// At full resolution, a 2x-changed budget should miss almost nothing.
	if r.Missed[0] > 0.05 {
		t.Fatalf("full-res miss rate %.3f", r.Missed[0])
	}
	// Even the deepest downsampling keeps the miss rate bounded (paper:
	// 1.7% at 2601x; tolerances widen at tiny scale).
	if r.Missed[len(r.Missed)-1] > 0.30 {
		t.Fatalf("deep-downsample miss rate %.3f", r.Missed[len(r.Missed)-1])
	}
	render(t, r)
}

func TestFig11PlanetShape(t *testing.T) {
	r, err := Fig11(Tiny(), PlanetSampled)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"Earth+", "Kodan", "SatRoI"} {
		if len(r.Curves[name]) != len(Tiny().GammaSweep) {
			t.Fatalf("%s curve has %d points", name, len(r.Curves[name]))
		}
	}
	// Earth+ must sit left of Kodan: less bandwidth at every γ.
	for i := range r.Curves["Earth+"] {
		e, k := r.Curves["Earth+"][i], r.Curves["Kodan"][i]
		if e.DownlinkMbps >= k.DownlinkMbps {
			t.Fatalf("gamma %.2f: Earth+ %.2f Mbps >= Kodan %.2f", e.Gamma, e.DownlinkMbps, k.DownlinkMbps)
		}
	}
	if math.IsNaN(r.SavingMin) || r.SavingMax < 1.2 {
		t.Fatalf("saving range %.2f-%.2f", r.SavingMin, r.SavingMax)
	}
	render(t, r)
}

func TestFig12Distributions(t *testing.T) {
	r, err := Fig12(Tiny())
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"Earth+", "Kodan", "SatRoI"} {
		if len(r.TileFrac[name]) == 0 || len(r.PSNR[name]) == 0 {
			t.Fatalf("%s has empty distributions", name)
		}
	}
	// Earth+'s median download fraction must undercut both baselines'.
	me := median(r.TileFrac["Earth+"])
	if me >= median(r.TileFrac["Kodan"]) || me >= median(r.TileFrac["SatRoI"]) {
		t.Fatalf("Earth+ median %.2f not lowest (K %.2f, S %.2f)",
			me, median(r.TileFrac["Kodan"]), median(r.TileFrac["SatRoI"]))
	}
	render(t, r)
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
	return s[len(s)/2]
}

func TestFig13SeriesPopulated(t *testing.T) {
	r, err := Fig13(Tiny())
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"Earth+", "Kodan", "SatRoI"} {
		pts := r.Series[name]
		if len(pts) == 0 {
			t.Fatalf("%s series empty", name)
		}
		for i := 1; i < len(pts); i++ {
			if pts[i].Day < pts[i-1].Day {
				t.Fatalf("%s series unsorted", name)
			}
		}
	}
	render(t, r)
}

func TestFig14SavingsComputed(t *testing.T) {
	r, err := Fig14(Tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Locations) != Tiny().MaxLocations {
		t.Fatalf("locations = %v", r.Locations)
	}
	if len(r.Bands) != 13 {
		t.Fatalf("bands = %d", len(r.Bands))
	}
	for i, sv := range r.LocSaving {
		if math.IsNaN(sv) || sv <= 0 {
			t.Fatalf("location %s saving = %v", r.Locations[i], sv)
		}
	}
	render(t, r)
}

func TestFig15StorageOrdering(t *testing.T) {
	r, err := Fig15(Tiny())
	if err != nil {
		t.Fatal(err)
	}
	total := func(name string) float64 {
		for i, n := range r.Systems {
			if n == name {
				return r.Captured[i] + r.Refs[i]
			}
		}
		t.Fatalf("system %s missing", name)
		return 0
	}
	if !(total("Kodan") > total("SatRoI") && total("SatRoI") > total("Earth+")) {
		t.Fatalf("storage ordering broken: K=%.0f S=%.0f E=%.0f",
			total("Kodan"), total("SatRoI"), total("Earth+"))
	}
	// Earth+ must carry a non-zero but small reference share.
	for i, n := range r.Systems {
		if n == "Earth+" && (r.Refs[i] <= 0 || r.Refs[i] > r.Captured[i]+r.Refs[i]) {
			t.Fatalf("Earth+ reference share = %v", r.Refs[i])
		}
	}
	render(t, r)
}

func TestFig16RuntimeOrdering(t *testing.T) {
	r, err := Fig16(Tiny())
	if err != nil {
		t.Fatal(err)
	}
	total := map[string]float64{}
	for i, n := range r.Systems {
		total[n] = r.CloudSec[i] + r.ChangeSec[i] + r.EncodeSec[i]
	}
	if total["Earth+"] >= total["Kodan"] {
		t.Fatalf("Earth+ %.4fs not cheaper than Kodan %.4fs", total["Earth+"], total["Kodan"])
	}
	if total["Earth+"] > total["SatRoI"] {
		t.Fatalf("Earth+ %.4fs above SatRoI %.4fs", total["Earth+"], total["SatRoI"])
	}
	// Kodan's cloud detection must dominate the cheap detector.
	if r.CloudSec[0] <= r.CloudSec[2] {
		t.Fatalf("accurate detector %.4fs not above cheap %.4fs", r.CloudSec[0], r.CloudSec[2])
	}
	render(t, r)
}

func TestFig17RatiosCompound(t *testing.T) {
	r, err := Fig17(Tiny())
	if err != nil {
		t.Fatal(err)
	}
	if !(r.WithUpdates > r.WithDownsample && r.WithDownsample > r.Uncompressed) {
		t.Fatalf("ratios do not compound: %.1f %.1f %.1f",
			r.Uncompressed, r.WithDownsample, r.WithUpdates)
	}
	if r.WithUpdates < r.Required {
		t.Fatalf("achieved %.0fx below required %.0fx", r.WithUpdates, r.Required)
	}
	render(t, r)

	// Scale.Spec is the one path from the bench's system flags to the
	// Earth+ runs: it must reach them, and an unknown param must fail
	// loudly instead of running the defaults.
	sc := Tiny()
	sc.Spec = registry.Spec{StrParams: map[string]string{"tiled_store": "on"}}
	tiled, err := Fig17(sc)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("update ratio %.2fx default, %.2fx tiled", r.WithUpdates, tiled.WithUpdates)
	if tiled.WithUpdates == r.WithUpdates {
		t.Fatalf("tiled_store=on left Fig 17 at %.2fx", r.WithUpdates)
	}
	sc.Spec = registry.Spec{Params: map[string]float64{"no_such_knob": 1}}
	if _, err := Fig17(sc); !errors.Is(err, eperr.ErrBadConfig) {
		t.Fatalf("unknown param: error %v, want ErrBadConfig", err)
	}
}

func TestFig18MoreUplinkLessDownlink(t *testing.T) {
	r, err := Fig18(Tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Points) != len(Tiny().UplinkDivisors) {
		t.Fatalf("points = %d", len(r.Points))
	}
	first, last := r.Points[0], r.Points[len(r.Points)-1]
	if last.UplinkBytesPerDay <= first.UplinkBytesPerDay {
		t.Fatal("sweep not increasing in uplink")
	}
	if last.DownlinkMbps >= first.DownlinkMbps {
		t.Fatalf("more uplink did not reduce downlink: %.2f -> %.2f", first.DownlinkMbps, last.DownlinkMbps)
	}
	// Note: the reference-age day stamp is not asserted — under partial
	// (tile-granular) updates a starved uplink still advances the stamp
	// while leaving most tile content stale; the downlink cost above is
	// the meaningful freshness signal.
	render(t, r)
}

func TestFig19MoreSatellitesMoreCompression(t *testing.T) {
	r, err := Fig19(Tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Ratios) != len(Tiny().FleetSweep) {
		t.Fatalf("ratios = %v", r.Ratios)
	}
	first, last := r.Ratios[0], r.Ratios[len(r.Ratios)-1]
	if last <= first {
		t.Fatalf("compression did not grow with fleet size: %v", r.Ratios)
	}
	if first < 1 {
		t.Fatalf("single-satellite ratio %.2f below 1", first)
	}
	render(t, r)
}

func TestProfiledThetaSane(t *testing.T) {
	sc := Tiny()
	theta := profiledTheta(sc, richConfig(sc), 4)
	if theta <= 0 || theta > 0.05 {
		t.Fatalf("profiled theta = %v", theta)
	}
}

func TestAblationTheta(t *testing.T) {
	r, err := AblationTheta(Tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Points) != 3 {
		t.Fatalf("points = %d", len(r.Points))
	}
	// Over-sensitive θ must download more than the profiled setting.
	if r.Points[0].BytesPerCap <= r.Points[1].BytesPerCap {
		t.Fatalf("θ/4 bytes %.0f not above profiled %.0f", r.Points[0].BytesPerCap, r.Points[1].BytesPerCap)
	}
	// Under-sensitive θ must download less.
	if r.Points[2].BytesPerCap >= r.Points[1].BytesPerCap {
		t.Fatalf("4θ bytes %.0f not below profiled %.0f", r.Points[2].BytesPerCap, r.Points[1].BytesPerCap)
	}
	render(t, r)
}

func TestAblationGuarantee(t *testing.T) {
	r, err := AblationGuarantee(Tiny())
	if err != nil {
		t.Fatal(err)
	}
	// More frequent guarantees cost more downlink than none.
	if r.Points[0].BytesPerCap <= r.Points[2].BytesPerCap {
		t.Fatalf("10-day guarantee bytes %.0f not above disabled %.0f",
			r.Points[0].BytesPerCap, r.Points[2].BytesPerCap)
	}
	render(t, r)
}

func TestAblationReject(t *testing.T) {
	r, err := AblationReject(Tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Points) != 3 {
		t.Fatalf("points = %d", len(r.Points))
	}
	render(t, r)
}
