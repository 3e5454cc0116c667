package codec

import (
	"fmt"
	"testing"

	"earthplus/internal/raster"
)

// The codec is the hot path of every experiment in the reproduction, so its
// encode/decode throughput and steady-state allocation behaviour are tracked
// as first-class benchmarks (cmd/earthplus-bench -only codecbench snapshots
// them into BENCH_codec.json). Budgeted variants run at the γ=0.5 bpp
// operating point of the paper's sweeps; unbudgeted ones measure the full
// embedded encode.

func benchEncodePlane(b *testing.B, size int) {
	plane := testPlane(11, size, size)
	opt := DefaultOptions()
	opt.BudgetBytes = BudgetForBPP(0.5, size, size)
	// Warm the geometry cache so the loop measures steady state.
	if _, err := EncodePlane(plane, size, size, opt); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(size) * int64(size) * 4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := EncodePlane(plane, size, size, opt); err != nil {
			b.Fatal(err)
		}
	}
}

func benchDecodePlane(b *testing.B, size int) {
	plane := testPlane(11, size, size)
	opt := DefaultOptions()
	opt.BudgetBytes = BudgetForBPP(0.5, size, size)
	data, err := EncodePlane(plane, size, size, opt)
	if err != nil {
		b.Fatal(err)
	}
	if _, _, _, err := DecodePlane(data, 0); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(size) * int64(size) * 4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, _, err := DecodePlane(data, 0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEncodePlane64(b *testing.B)  { benchEncodePlane(b, 64) }
func BenchmarkEncodePlane256(b *testing.B) { benchEncodePlane(b, 256) }
func BenchmarkEncodePlane512(b *testing.B) { benchEncodePlane(b, 512) }

func BenchmarkDecodePlane64(b *testing.B)  { benchDecodePlane(b, 64) }
func BenchmarkDecodePlane256(b *testing.B) { benchDecodePlane(b, 256) }
func BenchmarkDecodePlane512(b *testing.B) { benchDecodePlane(b, 512) }

// BenchmarkEncodeImageParallel measures the frame encoder's multi-band
// worker pool at several widths; /1 is the serial reference.
func BenchmarkEncodeImageParallel(b *testing.B) {
	const size = 256
	im := raster.New(size, size, raster.PlanetBands())
	for bd := 0; bd < im.NumBands(); bd++ {
		copy(im.Plane(bd), testPlane(uint64(30+bd), size, size))
	}
	im.Clamp()
	opt := DefaultOptions()
	opt.BudgetBytes = BandBudget(0.5, size*size)
	for _, par := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("%d", par), func(b *testing.B) {
			b.SetBytes(int64(size) * int64(size) * 4 * int64(im.NumBands()))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := EncodeFrame(im.NumBands(), par, func(bd int) ([]byte, error) {
					return EncodePlane(im.Plane(bd), size, size, opt)
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkEncodePlaneLossless256(b *testing.B) {
	plane := testPlane(13, 256, 256)
	b.SetBytes(256 * 256 * 4)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := EncodePlaneLossless(plane, 256, 256, 5); err != nil {
			b.Fatal(err)
		}
	}
}
