package sim_test

// The determinism matrix. Every row runs one configuration at workers 1,
// 4 and 8 and must write the same trace bytes each time: records, per-day
// uplink bytes and the contact log. Each row first checks that its serial
// run exercised the knob it covers, because a run that never evicts,
// faults or stalls proves nothing. The SHA-256 of every serial trace is
// pinned in testdata/trace_digests.txt, so a change that moves any output
// fails here as well. CI runs the matrix under -race at GOMAXPROCS 1 and
// 4, which also proves the concurrent capture path race-free. The
// bounded-store rows run as TestStorageBoundedRunDeterministicAcrossWorkerCounts
// and the rest as TestRunDeterministicAcrossWorkerCounts; both share one
// row type and one runner.

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"earthplus/internal/baseline"
	"earthplus/internal/codec"
	"earthplus/internal/constellation"
	"earthplus/internal/core"
	"earthplus/internal/link"
	"earthplus/internal/orbit"
	"earthplus/internal/raster"
	"earthplus/internal/scene"
	"earthplus/internal/sim"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite the golden trace digests")

// digestPath holds one "<sha256>  <row>" line per matrix row. Regenerate
// it with `go test ./internal/sim -run RunDeterministicAcrossWorkerCounts
// -update-golden` on amd64, and say in the change which digest moved and
// why.
const digestPath = "testdata/trace_digests.txt"

// detConfig is a small scene with enough locations to exercise real
// sharding: snow, clouds and several content types at 64x64.
func detConfig() scene.Config {
	return scene.Config{
		Seed:     9137,
		Width:    64,
		Height:   64,
		TileSize: 16,
		Bands:    raster.PlanetBands(),
		Locations: []scene.Location{
			{Name: "A", Content: scene.Coastal},
			{Name: "B", Content: scene.Forest},
			{Name: "C", Content: scene.Snowfield, SnowProne: true},
			{Name: "D", Content: scene.City},
			{Name: "E", Content: scene.Agriculture},
		},
		Clouds:            scene.DefaultClouds(),
		Changes:           scene.DefaultChanges(),
		IllumGainJitter:   0.10,
		IllumOffsetJitter: 0.03,
		SensorNoise:       0.004,
		AtmosVariability:  0.03,
		MicroTexture:      0.12,
	}
}

func detEnv(parallelism int) *sim.Env {
	return &sim.Env{
		Scene:             scene.New(detConfig()),
		Orbit:             orbit.Constellation{Satellites: 4, RevisitDays: 2},
		Downlink:          link.Budget{Bps: 200e6, SecondsPerContact: 600, ContactsPerDay: 7},
		UplinkBytesPerDay: 6 << 10, // tight enough to exercise uplink trimming
		Parallelism:       parallelism,
	}
}

// constDetEnv is detEnv at fleet scale: 16 satellites on a 2-day revisit,
// so every location sees 8 satellites a day and 16 satellites compete for
// 2 stations x 7 windows = 14 daily contact slots. Eight workers exceed
// the 5 locations, which exercises the engine's capture pregeneration.
func constDetEnv(parallelism int) *sim.Env {
	env := detEnv(parallelism)
	env.Orbit.Satellites = 16
	return env
}

// tiledDetEnv has references large enough at detection resolution to
// span several 64px codec tiles, so the ground splices mirror frames per
// tile instead of trivially re-encoding everything.
func tiledDetEnv(parallelism int) *sim.Env {
	cfg := detConfig()
	cfg.Width, cfg.Height, cfg.TileSize = 256, 256, 32
	cfg.Locations = cfg.Locations[:3]
	return &sim.Env{
		Scene:             scene.New(cfg),
		Orbit:             orbit.Constellation{Satellites: 4, RevisitDays: 2},
		Downlink:          link.Budget{Bps: 200e6, SecondsPerContact: 600, ContactsPerDay: 7},
		UplinkBytesPerDay: 64 << 10,
		Parallelism:       parallelism,
	}
}

// earthPlus builds Earth+ from the default config with set applied.
func earthPlus(set func(*core.Config)) func(*sim.Env) (sim.System, error) {
	return func(env *sim.Env) (sim.System, error) {
		cfg := core.DefaultConfig()
		set(&cfg)
		return core.New(env, cfg)
	}
}

// matrixRow is one configuration of the determinism matrix.
type matrixRow struct {
	name string
	env  func(parallelism int) *sim.Env
	sys  func(*sim.Env) (sim.System, error)
	// exercised fails the row when its serial run never hit the row's knob.
	exercised func(t *testing.T, res *sim.Result, sys sim.System)
}

func matrixRows() []matrixRow {
	return []matrixRow{
		{"Earth+", detEnv, earthPlus(func(c *core.Config) {
			c.GuaranteePeriodDays = 4 // guaranteed downloads fall in the window
		}), nil},
		{"Kodan", detEnv, func(env *sim.Env) (sim.System, error) {
			return baseline.NewKodan(env, 1.0, codec.DefaultOptions())
		}, nil},
		{"SatRoI", detEnv, func(env *sim.Env) (sim.System, error) {
			return baseline.NewSatRoI(env, 1.0, codec.DefaultOptions())
		}, nil},
		{"tiled-store", tiledDetEnv, earthPlus(func(c *core.Config) {
			c.RefCompression = true
			c.RefDownsample = 2 // 128x128 references: a 2x2 codec-tile grid
			c.CodecOpts.Tiled = true
		}), func(t *testing.T, _ *sim.Result, sys sim.System) {
			re, total := sys.(*core.System).SpliceTileStats()
			t.Logf("re-encoded %d of %d splice tiles", re, total)
			if re <= 0 || re >= total {
				t.Fatalf("re-encoded %d of %d splice tiles, want 0 < re-encoded < total", re, total)
			}
		}},
		{"lossy-link", detEnv, earthPlus(func(c *core.Config) {
			c.LinkFaults = link.UniformFaults(0.08, 3)
		}), requireDownFaults},
		{"constellation", func(p int) *sim.Env {
			env := constDetEnv(p)
			// The event tracker rides along as the engine observer, so the
			// concurrent ObserveVisit path runs under -race too.
			env.Observer = constellation.NewEventTracker(env.Scene, 30, 36, 0)
			return env
		}, earthPlus(func(c *core.Config) {
			c.Constellation = constellation.Config{Stations: 2}
		}), func(t *testing.T, res *sim.Result, sys sim.System) {
			requireStalls(t, res, sys)
			checkContacts(t, res, sys.(*core.System), 2)
		}},
		{"combined", constDetEnv, earthPlus(func(c *core.Config) {
			c.StorageBytes, c.EvictPolicy, c.RefCompression = 2000, "schedule", true
			c.CodecOpts.Tiled = true
			c.LinkFaults = link.UniformFaults(0.08, 3)
			c.Constellation = constellation.Config{Stations: 2}
		}), func(t *testing.T, res *sim.Result, sys sim.System) {
			requireMisses(t, res, sys)
			requireDownFaults(t, res, sys)
			requireStalls(t, res, sys)
			checkContacts(t, res, sys.(*core.System), 2)
			if re, total := sys.(*core.System).SpliceTileStats(); total == 0 {
				t.Fatal("never spliced a mirror frame")
			} else {
				t.Logf("re-encoded %d of %d splice tiles", re, total)
			}
		}},
	}
}

// storageRows are the matrix rows with a bounded reference store. One
// location's detection-resolution reference is (64/4)^2 * 4 bands * 2
// bytes = 2048 bytes, so 5,000 B holds about 2 of 5. A compressed
// reference is ~850 bytes with framing, so the compressed store gets a
// tighter budget that still evicts.
func storageRows() []matrixRow {
	return []matrixRow{
		{"lru", detEnv, earthPlus(func(c *core.Config) {
			c.StorageBytes, c.EvictPolicy = 5000, "lru"
		}), requireMisses},
		{"schedule", detEnv, earthPlus(func(c *core.Config) {
			c.StorageBytes, c.EvictPolicy = 5000, "schedule"
		}), requireMisses},
		{"lru-refcompress", detEnv, earthPlus(func(c *core.Config) {
			c.StorageBytes, c.EvictPolicy, c.RefCompression = 2000, "lru", true
		}), requireMisses},
	}
}

func TestRunDeterministicAcrossWorkerCounts(t *testing.T) {
	runMatrix(t, matrixRows())
}

func TestStorageBoundedRunDeterministicAcrossWorkerCounts(t *testing.T) {
	runMatrix(t, storageRows())
}

// runMatrix runs rows at workers 1, 4 and 8 and checks each serial trace
// against its golden digest, or rewrites the digest under -update-golden.
func runMatrix(t *testing.T, rows []matrixRow) {
	golden := readDigests(t)
	compare := runtime.GOARCH == "amd64"
	if *updateGolden && !compare {
		t.Fatalf("golden digests hold amd64 float bits; cannot rewrite them on %s", runtime.GOARCH)
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			serial, sys := runRow(t, row, 1)
			if len(serial.Records) == 0 {
				t.Fatal("no captures simulated")
			}
			if row.exercised != nil {
				row.exercised(t, serial, sys)
			}
			want := traceOf(t, serial)
			wantCounters := counters(sys)
			for _, workers := range []int{4, 8} {
				res, sys := runRow(t, row, workers)
				if got := traceOf(t, res); !bytes.Equal(got, want) {
					t.Fatalf("trace at %d workers differs from the serial run at %s", workers, firstDiff(want, got))
				}
				if got := counters(sys); got != wantCounters {
					t.Fatalf("counters at %d workers:\n  %s\nserial:\n  %s", workers, got, wantCounters)
				}
			}
			sum := sha256.Sum256(want)
			digest := hex.EncodeToString(sum[:])
			switch {
			case *updateGolden:
				golden[row.name] = digest
			case !compare:
				t.Logf("serial trace digest not compared on %s: Go fuses x*y+z into FMA there", runtime.GOARCH)
			case golden[row.name] == "":
				t.Fatalf("no golden digest for row %q (run with -update-golden)", row.name)
			case golden[row.name] != digest:
				t.Fatalf("serial trace digest %s, golden %s: the output moved", digest, golden[row.name])
			}
		})
	}
	if *updateGolden {
		// Write every row the file knows, so the test that ran first
		// keeps the other's digests and a deleted row drops out.
		var b strings.Builder
		for _, row := range append(matrixRows(), storageRows()...) {
			if d := golden[row.name]; d != "" {
				fmt.Fprintf(&b, "%s  %s\n", d, row.name)
			}
		}
		if err := os.WriteFile(digestPath, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// runRow runs one matrix row's window at the given worker count.
func runRow(t *testing.T, row matrixRow, parallelism int) (*sim.Result, sim.System) {
	t.Helper()
	env := row.env(parallelism)
	sys, err := row.sys(env)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(env, sys, 5, 30, 36)
	if err != nil {
		t.Fatal(err)
	}
	return res, sys
}

// readDigests loads the golden digest file; a missing file reads as empty.
func readDigests(t *testing.T) map[string]string {
	t.Helper()
	digests := map[string]string{}
	data, err := os.ReadFile(digestPath)
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

func traceOf(t *testing.T, res *sim.Result) []byte {
	t.Helper()
	b, err := sim.TraceBytes(res)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// firstDiff locates the first trace line where got departs from want.
func firstDiff(want, got []byte) string {
	wl, gl := bytes.Split(want, []byte("\n")), bytes.Split(got, []byte("\n"))
	for i := 0; i < len(wl) && i < len(gl); i++ {
		if !bytes.Equal(wl[i], gl[i]) {
			return fmt.Sprintf("line %d:\n  serial: %s\n  got:    %s", i+1, wl[i], gl[i])
		}
	}
	return fmt.Sprintf("line count: serial %d, got %d", len(wl), len(gl))
}

// counters renders an Earth+ run's store, splice, link and scheduler
// counters, which must not depend on the worker count either.
func counters(sys sim.System) string {
	cs, ok := sys.(*core.System)
	if !ok {
		return ""
	}
	ev, miss := cs.StorageStats()
	re, total := cs.SpliceTileStats()
	return fmt.Sprintf("evictions %d, misses %d, splice %d/%d, link %+v, stations %+v",
		ev, miss, re, total, cs.LinkStats(), cs.ConstellationStats())
}

func requireMisses(t *testing.T, res *sim.Result, _ sim.System) {
	t.Helper()
	n := 0
	for _, r := range res.Records {
		if r.RefMiss {
			n++
		}
	}
	t.Logf("%d reference misses", n)
	if n == 0 {
		t.Fatal("no reference miss: the storage budget never bound")
	}
}

func requireDownFaults(t *testing.T, res *sim.Result, _ sim.System) {
	t.Helper()
	n := 0
	for _, r := range res.Records {
		if r.DownDropped || r.DownCorrupted {
			n++
		}
	}
	t.Logf("%d downlink faults", n)
	if n == 0 {
		t.Fatal("no downlink frame faulted")
	}
}

func requireStalls(t *testing.T, _ *sim.Result, sys sim.System) {
	t.Helper()
	st := sys.(*core.System).ConstellationStats()
	t.Logf("station stats %+v", st)
	if st.Stalls == 0 {
		t.Fatal("16 satellites on 14 windows never stalled")
	}
}

// checkContacts asserts the contact log's invariants: the run attached the
// system's log, no contact moved more than the per-contact budget or sits
// off the station/window grid, and no station served two satellites in
// one (day, window).
func checkContacts(t *testing.T, res *sim.Result, cs *core.System, stations int) {
	t.Helper()
	if len(res.Contacts) == 0 || !reflect.DeepEqual(res.Contacts, cs.ContactLog()) {
		t.Fatalf("Result.Contacts (%d) is not the system's contact log (%d)", len(res.Contacts), len(cs.ContactLog()))
	}
	budget := cs.ContactBudget()
	if budget <= 0 {
		t.Fatalf("derived per-contact budget = %d, want finite", budget)
	}
	booked := map[[3]int]int{}
	for _, ct := range res.Contacts {
		if ct.Bytes > budget {
			t.Fatalf("contact %+v over the %d-byte budget", ct, budget)
		}
		if ct.Station < 0 || ct.Station >= stations || ct.Window < 0 || ct.Window >= constellation.DefaultContactsPerStation {
			t.Fatalf("contact %+v outside the station/window grid", ct)
		}
		slot := [3]int{ct.Day, ct.Station, ct.Window}
		if prev, ok := booked[slot]; ok && prev != ct.Sat {
			t.Fatalf("station %d double-booked on day %d window %d: sats %d and %d", ct.Station, ct.Day, ct.Window, prev, ct.Sat)
		}
		booked[slot] = ct.Sat
	}
}

// TestRunStreamMatchesRun pins the streaming emitter to the retained-record
// path: the same trace, and a streamed Accumulator must summarise exactly
// like Summarize over the retained set.
func TestRunStreamMatchesRun(t *testing.T) {
	mk := func(env *sim.Env) (sim.System, error) {
		return baseline.NewKodan(env, 1.0, codec.DefaultOptions())
	}
	want, _ := runRow(t, matrixRow{env: detEnv, sys: mk}, 2)

	env := detEnv(2)
	sys, err := mk(env)
	if err != nil {
		t.Fatal(err)
	}
	acc := sim.NewAccumulator()
	var streamed []sim.Record
	res, err := sim.RunStream(env, sys, 5, 30, 36, func(r *sim.Record) {
		acc.Add(r)
		streamed = append(streamed, *r)
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Records != nil {
		t.Fatal("RunStream retained records")
	}
	if got, wantS := acc.Summary(res, env.Downlink), sim.Summarize(want, env.Downlink); got != wantS {
		t.Fatalf("streamed summary %+v != retained summary %+v", got, wantS)
	}
	res.Records = streamed
	if !bytes.Equal(traceOf(t, res), traceOf(t, want)) {
		t.Fatal("streamed run's trace differs from Run's")
	}
}

// TestConstellationOffIsFlatBudget: a zero Constellation config must write
// the same trace as the flat-budget default, with no contact log.
func TestConstellationOffIsFlatBudget(t *testing.T) {
	run := func(cfg core.Config) *sim.Result {
		t.Helper()
		env := constDetEnv(2)
		sys, err := core.New(env, cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sim.Run(env, sys, 5, 30, 34)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	flat := run(core.DefaultConfig())
	explicit := core.DefaultConfig()
	explicit.Constellation = constellation.Config{}
	again := run(explicit)
	if flat.Contacts != nil || again.Contacts != nil {
		t.Fatalf("flat-budget runs grew a contact log: %d / %d", len(flat.Contacts), len(again.Contacts))
	}
	if !bytes.Equal(traceOf(t, flat), traceOf(t, again)) {
		t.Fatal("zero constellation config changed the flat-budget trace")
	}
}
