package experiments

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"testing"

	"earthplus/internal/codec"
	"earthplus/internal/noise"
)

// CodecBench snapshots the codec hot path's throughput so the perf
// trajectory is tracked across PRs: every experiment in the reproduction
// funnels through EncodePlane/DecodePlane, making these numbers the
// binding constraint on whole-constellation simulation time (and a proxy
// for the paper's on-board compute envelope, §5). The snapshot is written
// as JSON (BENCH_codec.json by default) and rendered as a table.

// CodecBenchEntry is one measured codec operation.
type CodecBenchEntry struct {
	Name        string  `json:"name"`
	Size        int     `json:"size"`
	NsPerOp     int64   `json:"ns_per_op"`
	MBPerSec    float64 `json:"mb_per_sec"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
}

// CodecBenchResult is the full snapshot.
type CodecBenchResult struct {
	GoVersion   string            `json:"go_version"`
	GOMAXPROCS  int               `json:"gomaxprocs"`
	Parallelism int               `json:"codec_parallelism"`
	Entries     []CodecBenchEntry `json:"entries"`
	path        string
}

// ID implements Result.
func (r *CodecBenchResult) ID() string { return "Codec perf snapshot" }

// Render implements Result.
func (r *CodecBenchResult) Render(w io.Writer) error {
	fmt.Fprintf(w, "%-22s %12s %10s %12s %8s\n", "op", "ns/op", "MB/s", "B/op", "allocs")
	for _, e := range r.Entries {
		fmt.Fprintf(w, "%-22s %12d %10.1f %12d %8d\n",
			e.Name, e.NsPerOp, e.MBPerSec, e.BytesPerOp, e.AllocsPerOp)
	}
	if r.path != "" {
		fmt.Fprintf(w, "snapshot written to %s\n", r.path)
	}
	return nil
}

// benchPlane builds the same natural-ish content the codec unit benchmarks
// use.
func benchPlane(seed uint64, w, h int) []float32 {
	p := make([]float32, w*h)
	noise.New(seed).FillFBM(p, w, h, 6, 4)
	return p
}

// CodecBench measures encode/decode at 64², 256² and 512² (γ=0.5 bpp) and,
// when outPath is non-empty, writes the JSON snapshot there.
func CodecBench(outPath string) (*CodecBenchResult, error) {
	res := &CodecBenchResult{
		GoVersion:   runtime.Version(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		Parallelism: codec.Parallelism,
		path:        outPath,
	}
	for _, size := range []int{64, 256, 512} {
		plane := benchPlane(11, size, size)
		opt := codec.DefaultOptions()
		opt.BudgetBytes = codec.BudgetForBPP(0.5, size, size)
		data, err := codec.EncodePlane(plane, size, size, opt)
		if err != nil {
			return nil, fmt.Errorf("codecbench: encode %d: %w", size, err)
		}
		if _, _, _, err := codec.DecodePlane(data, 0); err != nil {
			return nil, fmt.Errorf("codecbench: decode %d: %w", size, err)
		}
		raw := int64(size) * int64(size) * 4
		// The tiled profile at the same budget, pinned to ONE worker so the
		// speedup over the monolithic rows above is algorithmic (per-tile
		// RLGR coding), not parallelism.
		topt := opt
		topt.Tiled = true
		topt.Parallelism = 1
		tdata, err := codec.EncodePlane(plane, size, size, topt)
		if err != nil {
			return nil, fmt.Errorf("codecbench: tiled encode %d: %w", size, err)
		}
		res.Entries = append(res.Entries,
			bench(fmt.Sprintf("EncodePlane%d", size), size, raw, func() error {
				_, err := codec.EncodePlane(plane, size, size, opt)
				return err
			}),
			bench(fmt.Sprintf("DecodePlane%d", size), size, raw, func() error {
				_, _, _, err := codec.DecodePlane(data, 0)
				return err
			}),
			bench(fmt.Sprintf("EncodeTiled%d", size), size, raw, func() error {
				_, err := codec.EncodePlane(plane, size, size, topt)
				return err
			}),
			bench(fmt.Sprintf("DecodeTiled%d", size), size, raw, func() error {
				_, _, _, err := codec.DecodePlane(tdata, 0)
				return err
			}))
	}

	// Full-quality encode at 256²: with no byte budget the monolithic
	// coder must code every bit plane, which is where the tiled profile's
	// RLGR fast path shows its real margin (the budgeted rows above let
	// the monolithic rate controller stop early). Both rows single-thread.
	{
		const size = 256
		plane := benchPlane(11, size, size)
		raw := int64(size) * int64(size) * 4
		for _, tiled := range []bool{false, true} {
			opt := codec.DefaultOptions()
			opt.Tiled = tiled
			opt.Parallelism = 1
			name := "EncodeFull256"
			if tiled {
				name = "EncodeTiledFull256"
			}
			res.Entries = append(res.Entries, bench(name, size, raw, func() error {
				_, err := codec.EncodePlane(plane, size, size, opt)
				return err
			}))
		}
	}

	// Region decode of one centred 64x64 rectangle at growing plane sizes:
	// on the tiled profile latency tracks the tiles touched (flat in the
	// plane size), while the monolithic profile pays a full decode plus
	// crop — the gap is the point of the tile index.
	for _, size := range []int{256, 1024} {
		plane := benchPlane(13, size, size)
		raw := int64(64) * 64 * 4
		rx := size/2 - 32
		for _, tiled := range []bool{true, false} {
			opt := codec.DefaultOptions()
			opt.BudgetBytes = codec.BudgetForBPP(0.5, size, size)
			opt.Tiled = tiled
			opt.Parallelism = 1
			data, err := codec.EncodePlane(plane, size, size, opt)
			if err != nil {
				return nil, fmt.Errorf("codecbench: region encode %d: %w", size, err)
			}
			name := fmt.Sprintf("RegionMono64@%d", size)
			if tiled {
				name = fmt.Sprintf("RegionTiled64@%d", size)
			}
			res.Entries = append(res.Entries, bench(name, size, raw, func() error {
				_, _, _, err := codec.DecodeRegion(data, rx, rx, 64, 64)
				return err
			}))
		}
	}
	if outPath != "" {
		data, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			return nil, err
		}
		if err := os.WriteFile(outPath, append(data, '\n'), 0o644); err != nil {
			return nil, fmt.Errorf("codecbench: writing snapshot: %w", err)
		}
	}
	return res, nil
}

// bench times op with testing.Benchmark and reports it as the named row;
// raw is the uncompressed bytes one op covers.
func bench(name string, size int, raw int64, op func() error) CodecBenchEntry {
	br := testing.Benchmark(func(b *testing.B) {
		b.SetBytes(raw)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := op(); err != nil {
				b.Fatal(err)
			}
		}
	})
	ns := br.NsPerOp()
	mbps := 0.0
	if ns > 0 {
		mbps = float64(raw) / (float64(ns) / 1e9) / 1e6
	}
	return CodecBenchEntry{
		Name:        name,
		Size:        size,
		NsPerOp:     ns,
		MBPerSec:    mbps,
		BytesPerOp:  br.AllocedBytesPerOp(),
		AllocsPerOp: br.AllocsPerOp(),
	}
}
