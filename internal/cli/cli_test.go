package cli

import (
	"flag"
	"math"
	"reflect"
	"testing"

	"earthplus/pkg/earthplus"
)

func TestPerfFlags(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	var p Perf
	p.Register(fs)
	if err := fs.Parse([]string{"-parallel", "3", "-simworkers", "5"}); err != nil {
		t.Fatal(err)
	}
	if p.Parallel != 3 || p.SimWorkers != 5 {
		t.Fatalf("parsed %+v", p)
	}
	p.Apply()
	defer func() {
		earthplus.SetCodecParallelism(0)
		earthplus.SetSimWorkers(0)
	}()
}

// parseSystemFlags registers the system flags on a fresh flag set, parses
// args, validates the group and returns the spec it builds.
func parseSystemFlags(t *testing.T, args ...string) earthplus.SystemSpec {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	var f SystemFlags
	f.Register(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	if err := f.Validate(); err != nil {
		t.Fatal(err)
	}
	return f.Spec()
}

// TestSystemFlags pins the one path from the system flags to Earth+: all
// eight flags parse into exactly the spec below, Earth+ accepts every
// param it names, and a flag left at its default adds nothing.
func TestSystemFlags(t *testing.T) {
	spec := parseSystemFlags(t,
		"-storage", "12345", "-evictpolicy", "schedule", "-refcompress", "-tiledstore",
		"-linkloss", "0.05", "-linkseed", "9", "-stations", "3", "-contactbudget", "2048",
	)
	want := earthplus.SystemSpec{
		Params: map[string]float64{
			"storage_bytes": 12345, "link_loss": 0.05, "link_seed": 9,
			"stations": 3, "contact_budget": 2048,
		},
		StrParams: map[string]string{
			"evict_policy": "schedule", "ref_compression": "on", "tiled_store": "on",
		},
	}
	if !reflect.DeepEqual(spec, want) {
		t.Fatalf("spec %+v, want %+v", spec, want)
	}
	env, err := (&Dataset{Name: "rich"}).Env()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := earthplus.NewSystem(earthplus.SystemEarthPlus, env, spec); err != nil {
		t.Fatalf("Earth+ rejected the flags' spec: %v", err)
	}

	// Defaults leave the spec untouched so system defaults survive, and
	// presence of link_loss and stations is meaningful: default runs stay
	// byte-identical to the perfect channel and the flat per-day budget.
	var zero SystemFlags
	if got := zero.Spec(); !reflect.DeepEqual(got, earthplus.SystemSpec{}) {
		t.Fatalf("zero flags gave spec %+v", got)
	}
}

// TestStorageFlags pins the four storage flags: they set exactly their own
// params and nothing of the link or the fleet.
func TestStorageFlags(t *testing.T) {
	spec := parseSystemFlags(t,
		"-storage", "12345", "-evictpolicy", "schedule", "-refcompress", "-tiledstore")
	want := earthplus.SystemSpec{
		Params: map[string]float64{"storage_bytes": 12345},
		StrParams: map[string]string{
			"evict_policy": "schedule", "ref_compression": "on", "tiled_store": "on",
		},
	}
	if !reflect.DeepEqual(spec, want) {
		t.Fatalf("spec %+v, want %+v", spec, want)
	}
}

// TestLinkFlags pins the two link flags: a lossy channel sets link_loss
// and link_seed, and a seed without loss adds nothing, so default runs
// stay byte-identical to the perfect channel.
func TestLinkFlags(t *testing.T) {
	spec := parseSystemFlags(t, "-linkloss", "0.05", "-linkseed", "9")
	want := earthplus.SystemSpec{Params: map[string]float64{"link_loss": 0.05, "link_seed": 9}}
	if !reflect.DeepEqual(spec, want) {
		t.Fatalf("spec %+v, want %+v", spec, want)
	}
	if got := parseSystemFlags(t, "-linkseed", "9"); !reflect.DeepEqual(got, earthplus.SystemSpec{}) {
		t.Fatalf("-linkseed without -linkloss gave spec %+v", got)
	}
}

// TestFleetFlags pins the two fleet flags: -stations and -contactbudget set
// exactly stations and contact_budget, and -stations alone leaves the
// contact budget to be derived.
func TestFleetFlags(t *testing.T) {
	spec := parseSystemFlags(t, "-stations", "3", "-contactbudget", "2048")
	want := earthplus.SystemSpec{Params: map[string]float64{"stations": 3, "contact_budget": 2048}}
	if !reflect.DeepEqual(spec, want) {
		t.Fatalf("spec %+v, want %+v", spec, want)
	}
	want = earthplus.SystemSpec{Params: map[string]float64{"stations": 2}}
	if got := parseSystemFlags(t, "-stations", "2"); !reflect.DeepEqual(got, want) {
		t.Fatalf("-stations alone gave spec %+v", got)
	}
}

// TestFlagValidationPath pins the satellite bugfix: every bad flag value
// — -linkloss out of range, an unknown -evictpolicy — surfaces through
// ONE error path (Validate, which MustValidate routes to the uniform
// one-line fatal report) instead of erroring mid-run or panicking.
func TestFlagValidationPath(t *testing.T) {
	bad := []struct {
		name  string
		flags SystemFlags
	}{
		{"linkloss negative", SystemFlags{LinkLoss: -0.5}},
		{"linkloss above one", SystemFlags{LinkLoss: 1.5}},
		{"linkloss NaN", SystemFlags{LinkLoss: math.NaN()}},
		{"evictpolicy unknown", SystemFlags{EvictPolicy: "random"}},
		{"valid storage, bad link", SystemFlags{EvictPolicy: "lru", LinkLoss: 2}},
	}
	for _, tc := range bad {
		if err := tc.flags.Validate(); err == nil {
			t.Fatalf("%s: accepted", tc.name)
		}
	}
	for _, ok := range []SystemFlags{
		{}, {EvictPolicy: "lru"}, {EvictPolicy: "schedule"},
		{LinkLoss: 1}, {LinkLoss: 0.01, LinkSeed: 7},
	} {
		if err := ok.Validate(); err != nil {
			t.Fatalf("valid flags %+v rejected: %v", ok, err)
		}
	}
}

func TestPerfCodecOnly(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	var p Perf
	p.RegisterCodec(fs)
	if err := fs.Parse([]string{"-parallel", "2"}); err != nil {
		t.Fatal(err)
	}
	if fs.Lookup("simworkers") != nil {
		t.Fatal("RegisterCodec must not install -simworkers")
	}
}

func TestDatasetResolution(t *testing.T) {
	cases := []struct {
		name      string
		locations int
		sats      int
	}{
		{"rich", 11, 2},
		{"planet", 1, 7},
		{"planet-sampled", 1, 7},
		{"planet-natural", 1, 7},
	}
	for _, c := range cases {
		fs := flag.NewFlagSet("test", flag.ContinueOnError)
		var d Dataset
		d.Register(fs, "planet", 8)
		if err := fs.Parse([]string{"-dataset", c.name, "-sats", "7"}); err != nil {
			t.Fatal(err)
		}
		cfg, err := d.SceneConfig()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if len(cfg.Locations) != c.locations {
			t.Fatalf("%s: %d locations, want %d", c.name, len(cfg.Locations), c.locations)
		}
		if got := d.Constellation().Satellites; got != c.sats {
			t.Fatalf("%s: %d satellites, want %d", c.name, got, c.sats)
		}
	}
}

func TestDatasetUnknownName(t *testing.T) {
	d := Dataset{Name: "mars"}
	if _, err := d.SceneConfig(); err == nil {
		t.Fatal("unknown dataset accepted")
	}
	if _, err := d.Env(); err == nil {
		t.Fatal("Env accepted an unknown dataset")
	}
}

func TestDatasetEnv(t *testing.T) {
	d := Dataset{Name: "planet", Sats: 4}
	env, err := d.Env()
	if err != nil {
		t.Fatal(err)
	}
	if env.Scene == nil || env.Orbit.Satellites != 4 || env.Downlink.Bps != 200e6 {
		t.Fatalf("env = %+v", env)
	}
	if d.FullSize {
		t.Fatal("FullSize default should be false")
	}
	full := Dataset{Name: "rich", FullSize: true}
	cfg, err := full.SceneConfig()
	if err != nil {
		t.Fatal(err)
	}
	quick := Dataset{Name: "rich"}
	quickCfg, _ := quick.SceneConfig()
	if cfg.Width <= quickCfg.Width {
		t.Fatalf("fullsize width %d not larger than quick %d", cfg.Width, quickCfg.Width)
	}
}

func TestFleetValidation(t *testing.T) {
	for _, bad := range []SystemFlags{
		{Stations: -1},
		{ContactBudget: 100},
		{ContactBudget: -1},
	} {
		if err := bad.Validate(); err == nil {
			t.Fatalf("bad fleet config accepted: %+v", bad)
		}
	}
	for _, ok := range []SystemFlags{
		{},
		{Stations: 1},
		{Stations: 2, ContactBudget: -1},
		{Stations: 4, ContactBudget: 4096},
	} {
		if err := ok.Validate(); err != nil {
			t.Fatalf("valid fleet config %+v rejected: %v", ok, err)
		}
	}
}
