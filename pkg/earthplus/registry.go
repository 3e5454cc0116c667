package earthplus

import (
	"earthplus/internal/registry"

	// The built-in systems self-register with the registry in their init
	// functions; importing the public API guarantees they are available.
	_ "earthplus/internal/baseline"
	_ "earthplus/internal/core"
)

// Registered names of the built-in systems.
const (
	// SystemEarthPlus is the paper's contribution: constellation-wide
	// reference-based on-board compression.
	SystemEarthPlus = "earthplus"
	// SystemKodan discards cloudy data with an expensive on-board
	// detector and downloads every remaining tile (§6.1).
	SystemKodan = "kodan"
	// SystemSatRoI runs reference-based encoding against a fixed
	// on-board reference that is never refreshed (§6.1).
	SystemSatRoI = "satroi"
)

// SystemSpec is the unified system configuration: γ (bits per pixel per
// downloaded tile), an optional change threshold θ, codec options, and
// system-specific knobs by name. Earth+ takes eleven:
//
//   - Params "guarantee_days" (guaranteed-download cadence),
//     "reject_cloud_frac" (ground-side cloudy-tile rejection),
//     "ref_downsample" (per-axis reference downsampling), "storage_bytes"
//     (on-board reference-store budget; explicit non-positive =
//     unlimited, absent = the Table 1 default of 360 GB), "link_loss" and
//     "link_seed" (fault-injected link), "stations" and "contact_budget"
//     (contended ground stations, bytes per contact window).
//   - StrParams "evict_policy" = "lru" | "schedule", and
//     "ref_compression" and "tiled_store" = "on" | "off".
//
// SatRoI takes "storage_bytes" and "evict_policy", so the storage sweep
// bounds its full-resolution store the same way; Kodan takes none.
// "guarantee_days", "ref_downsample", "link_seed", "stations",
// "contact_budget" and "storage_bytes" must be integers. The zero value
// means the system's defaults; unknown Params or StrParams keys and
// invalid values are a CodeBadConfig error.
type SystemSpec = registry.Spec

// SystemFactory builds a configured system for an environment.
type SystemFactory = registry.Factory

// Register installs a system factory under a new name, making it
// constructible by NewSystem, the experiment sweeps and the serving
// layer. Registering a taken name panics.
func Register(name string, factory SystemFactory) { registry.Register(name, factory) }

// NewSystem builds the named system for env. Unknown names return a
// CodeUnknownSystem error listing what is registered.
func NewSystem(name string, env *Env, spec SystemSpec) (System, error) {
	return registry.New(name, env, spec)
}

// Systems lists the registered system names, sorted.
func Systems() []string { return registry.Names() }
