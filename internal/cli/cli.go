// Package cli holds the flag plumbing shared by every executable under
// cmd/: the performance knobs (-parallel, -simworkers), the system flags
// that build one SystemSpec, the dataset selection flags (-dataset, -sats,
// -fullsize) with their environment construction, and uniform fatal-error
// reporting. The cmds themselves speak only the public pkg/earthplus API;
// this package exists so five main functions do not each re-implement the
// same plumbing.
package cli

import (
	"flag"
	"fmt"
	"os"

	"earthplus/pkg/earthplus"
)

// Perf bundles the performance flags every workload-running cmd exposes.
type Perf struct {
	// Parallel bounds the bands encoded/decoded concurrently per image.
	Parallel int
	// SimWorkers bounds the locations simulated concurrently per day.
	SimWorkers int
}

// Register installs both performance flags on fs.
func (p *Perf) Register(fs *flag.FlagSet) {
	p.RegisterCodec(fs)
	fs.IntVar(&p.SimWorkers, "simworkers", 0,
		"locations simulated concurrently per day (0 = GOMAXPROCS, 1 = serial; results are identical at any setting)")
}

// RegisterCodec installs only the codec flag (for cmds that never run
// the simulation engine).
func (p *Perf) RegisterCodec(fs *flag.FlagSet) {
	fs.IntVar(&p.Parallel, "parallel", 0,
		"bands encoded/decoded concurrently per image (0 = GOMAXPROCS)")
}

// Apply pushes the parsed values into the package-wide defaults.
func (p *Perf) Apply() {
	earthplus.SetCodecParallelism(p.Parallel)
	earthplus.SetSimWorkers(p.SimWorkers)
}

// SystemFlags bundles the system flags shared by the simulation cmds: the
// on-board reference store, the fault-injected ground↔satellite link and
// the contended ground segment. Spec turns them into the one SystemSpec
// every Earth+ run of a cmd starts from.
type SystemFlags struct {
	// StorageBytes is the store budget: 0 = the paper's Table 1 default
	// (360 GB), negative = explicitly unlimited.
	StorageBytes int64
	// EvictPolicy is the eviction policy ("lru" | "schedule"; empty = lru).
	EvictPolicy string
	// RefCompress stores on-board references compressed (encoded at the
	// uplink's lossy reference rate; decode-on-visit) instead of as raw
	// planes.
	RefCompress bool
	// TiledStore switches every codec pass in the loop to the tiled
	// (EPT1) codestream profile: per-tile splices on delta uplinks and
	// region decode-on-visit. Off keeps the monolithic v1 profile byte
	// for byte.
	TiledStore bool
	// LinkLoss is the aggregate link fault rate in [0,1], spread over
	// frame drops, corruptions, truncations and contact cancellations; 0
	// keeps the perfect channel and is byte-identical to not having the
	// flag at all.
	LinkLoss float64
	// LinkSeed picks the fault pattern; runs are byte-identical at any
	// worker count for a fixed seed.
	LinkSeed uint64
	// Stations is the ground-station count; 0 keeps the flat per-day
	// uplink budget (byte-identical to not having the flag at all).
	Stations int
	// ContactBudget is the uplink byte budget of one contact window:
	// 0 derives it from the flat per-day budget, negative = unlimited.
	// Meaningful only with -stations > 0.
	ContactBudget int64
}

// Register installs the system flags on fs.
func (f *SystemFlags) Register(fs *flag.FlagSet) {
	fs.Int64Var(&f.StorageBytes, "storage", 0,
		"on-board reference-store budget in bytes (0 = paper default 360 GB, negative = unlimited)")
	fs.StringVar(&f.EvictPolicy, "evictpolicy", "",
		"reference-store eviction policy: lru | schedule (empty = lru)")
	fs.BoolVar(&f.RefCompress, "refcompress", false,
		"store on-board references compressed (~2.7x more locations per storage budget, paid in decode-on-visit work; default off)")
	fs.BoolVar(&f.TiledStore, "tiledstore", false,
		"use the tiled (EPT1) codestream profile for updates, downloads and the store: per-tile splices and region decode (default off = monolithic v1 profile)")
	fs.Float64Var(&f.LinkLoss, "linkloss", 0,
		"aggregate link fault rate in [0,1], spread over frame drops, corruptions, truncations and contact cancellations (0 = perfect channel)")
	fs.Uint64Var(&f.LinkSeed, "linkseed", 1,
		"seed of the deterministic link fault pattern (meaningful only with -linkloss > 0)")
	fs.IntVar(&f.Stations, "stations", 0,
		"contended ground stations, each serving one satellite per contact window (0 = flat per-day uplink budget)")
	fs.Int64Var(&f.ContactBudget, "contactbudget", 0,
		"uplink bytes per contact window (0 = derive from the flat per-day budget, negative = unlimited; needs -stations)")
}

// Validate rejects flag values no run could honour, so a typo fails with
// one line on stderr before any simulation starts instead of erroring
// mid-run.
func (f *SystemFlags) Validate() error {
	switch f.EvictPolicy {
	case "", "lru", "schedule":
	default:
		return fmt.Errorf("-evictpolicy must be lru or schedule, got %q", f.EvictPolicy)
	}
	if f.LinkLoss != f.LinkLoss || f.LinkLoss < 0 || f.LinkLoss > 1 {
		return fmt.Errorf("-linkloss must be in [0,1], got %v", f.LinkLoss)
	}
	if f.Stations < 0 {
		return fmt.Errorf("-stations must be non-negative, got %d", f.Stations)
	}
	if f.ContactBudget != 0 && f.Stations == 0 {
		return fmt.Errorf("-contactbudget %d needs -stations > 0", f.ContactBudget)
	}
	return nil
}

// Spec returns the system params the flags set. A flag at its default
// adds nothing, so the system defaults survive and default runs stay
// byte-identical (presence of link_loss and stations is meaningful);
// systems without the matching model reject a set flag loudly. The zero
// group yields the zero spec.
func (f *SystemFlags) Spec() earthplus.SystemSpec {
	params := map[string]float64{}
	strs := map[string]string{}
	if f.StorageBytes != 0 {
		params["storage_bytes"] = float64(f.StorageBytes)
	}
	if f.EvictPolicy != "" {
		strs["evict_policy"] = f.EvictPolicy
	}
	if f.RefCompress {
		strs["ref_compression"] = "on"
	}
	if f.TiledStore {
		strs["tiled_store"] = "on"
	}
	if f.LinkLoss != 0 {
		params["link_loss"] = f.LinkLoss
		params["link_seed"] = float64(f.LinkSeed)
	}
	if f.Stations != 0 {
		params["stations"] = float64(f.Stations)
		if f.ContactBudget != 0 {
			params["contact_budget"] = float64(f.ContactBudget)
		}
	}
	var spec earthplus.SystemSpec
	if len(params) > 0 {
		spec.Params = params
	}
	if len(strs) > 0 {
		spec.StrParams = strs
	}
	return spec
}

// Dataset bundles the dataset-selection flags and the environment
// construction every simulation cmd repeats.
type Dataset struct {
	// Name picks the dataset: rich | planet | planet-natural.
	Name string
	// Sats is the constellation size for the planet datasets.
	Sats int
	// FullSize selects the larger scene scale.
	FullSize bool
}

// Register installs the dataset flags on fs with the given defaults.
func (d *Dataset) Register(fs *flag.FlagSet, defaultName string, defaultSats int) {
	fs.StringVar(&d.Name, "dataset", defaultName,
		"dataset: rich | planet (cloud-sampled) | planet-natural")
	fs.IntVar(&d.Sats, "sats", defaultSats, "number of satellites in the constellation (planet datasets)")
	fs.BoolVar(&d.FullSize, "fullsize", false, "use the larger scene size")
}

// size resolves the scene scale.
func (d *Dataset) size() earthplus.SceneSize {
	if d.FullSize {
		return earthplus.SizeFull
	}
	return earthplus.SizeQuick
}

// SceneConfig resolves the dataset name to a scene configuration.
func (d *Dataset) SceneConfig() (earthplus.SceneConfig, error) {
	switch d.Name {
	case "rich":
		return earthplus.RichContent(d.size()), nil
	case "planet", "planet-sampled":
		return earthplus.LargeConstellationSampled(d.size()), nil
	case "planet-natural":
		return earthplus.LargeConstellation(d.size()), nil
	default:
		return earthplus.SceneConfig{}, fmt.Errorf("unknown dataset %q (rich | planet | planet-natural)", d.Name)
	}
}

// Constellation returns the dataset's fleet: the Sentinel-2-like pair for
// rich content, a Doves-like fleet of Sats satellites otherwise.
func (d *Dataset) Constellation() earthplus.Constellation {
	if d.Name == "rich" {
		return earthplus.Constellation{Satellites: 2, RevisitDays: 10}
	}
	return earthplus.Constellation{Satellites: d.Sats, RevisitDays: 12}
}

// Env assembles the simulation environment for the selected dataset with
// the standard Doves downlink contact model.
func (d *Dataset) Env() (*earthplus.Env, error) {
	cfg, err := d.SceneConfig()
	if err != nil {
		return nil, err
	}
	return &earthplus.Env{
		Scene:    earthplus.NewScene(cfg),
		Orbit:    d.Constellation(),
		Downlink: earthplus.LinkBudget{Bps: 200e6, SecondsPerContact: 600, ContactsPerDay: 7},
	}, nil
}

// Validator is a flag group that can reject its parsed values.
type Validator interface {
	Validate() error
}

// MustValidate routes a flag group's validation through the one
// fatal-error path: a bad value prints a single line on stderr and exits
// nonzero, before any simulation work starts.
func MustValidate(cmd string, v Validator) {
	if err := v.Validate(); err != nil {
		Fail(cmd, "%v", err)
	}
}

// Fail reports a fatal cmd error and exits.
func Fail(cmd, format string, args ...any) {
	fmt.Fprintf(os.Stderr, cmd+": "+format+"\n", args...)
	os.Exit(1)
}
