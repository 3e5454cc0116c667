package core

import (
	"earthplus/internal/eperr"
	"earthplus/internal/link"
	"earthplus/internal/registry"
	"earthplus/internal/sim"
)

// SystemName is Earth+'s name in the system registry.
const SystemName = "earthplus"

// Earth+ self-registers so experiments, cmds and the public pkg/earthplus
// API construct it by name through one code path. The Params knobs mirror
// the Config fields the ablation studies and the system flags set;
// presence is meaningful (an explicit zero overrides the default), and
// unknown keys error.
func init() {
	registry.Register(SystemName, func(env *sim.Env, spec registry.Spec) (sim.System, error) {
		if err := registry.CheckParams(spec, SystemName,
			"guarantee_days", "reject_cloud_frac", "ref_downsample",
			"storage_bytes", "link_loss", "link_seed",
			"stations", "contact_budget"); err != nil {
			return nil, err
		}
		if err := registry.CheckStrParams(spec, SystemName,
			"evict_policy", "ref_compression", "tiled_store"); err != nil {
			return nil, err
		}
		// Integer knobs: a fractional, NaN or infinite value is an error,
		// never a silent truncation.
		ints := map[string]int64{}
		for _, name := range []string{"guarantee_days", "ref_downsample", "link_seed", "stations", "contact_budget"} {
			v, ok, err := spec.IntParam(name)
			if err != nil {
				return nil, err
			}
			if ok {
				ints[name] = v
			}
		}
		cfg := DefaultConfig()
		cfg.GammaBPP = spec.GammaBPP
		cfg.CodecOpts = spec.Codec
		if spec.Theta > 0 {
			cfg.Theta = spec.Theta
		}
		if v, ok := ints["guarantee_days"]; ok {
			cfg.GuaranteePeriodDays = int(v)
		}
		if v, ok := spec.Param("reject_cloud_frac"); ok {
			cfg.RejectCloudFrac = v
		}
		if v, ok := ints["ref_downsample"]; ok {
			cfg.RefDownsample = int(v)
		}
		var err error
		if cfg.StorageBytes, err = spec.StorageBytesParam(); err != nil {
			return nil, err
		}
		// One aggregate loss knob spread over the fault taxonomy; link_seed
		// (default 1) picks the deterministic fault pattern and is
		// meaningful only alongside link_loss.
		seed, ok := ints["link_seed"]
		if !ok {
			seed = 1
		} else if seed < 0 {
			return nil, eperr.New(eperr.BadConfig, "core",
				"link_seed must be non-negative, got %d", seed)
		}
		if v, ok := spec.Param("link_loss"); ok {
			if v < 0 || v > 1 {
				return nil, eperr.New(eperr.BadConfig, "core",
					"link_loss must be in [0,1], got %v", v)
			}
			cfg.LinkFaults = link.UniformFaults(v, uint64(seed))
		}
		if v, ok := spec.StrParam("evict_policy"); ok {
			cfg.EvictPolicy = v
		}
		if cfg.RefCompression, err = onOff(spec, "ref_compression", cfg.RefCompression); err != nil {
			return nil, err
		}
		// The tiled (EPT1) codestream profile for every codec pass in the
		// loop: uplinked updates, ROI downloads and the compressed store,
		// enabling per-tile splice and region decode-on-visit. Off (the
		// default) keeps the monolithic v1 profile byte for byte.
		if cfg.CodecOpts.Tiled, err = onOff(spec, "tiled_store", cfg.CodecOpts.Tiled); err != nil {
			return nil, err
		}
		// Constellation ground-segment model: "stations" sets the station
		// count and enables it; "contact_budget" (bytes per contact window,
		// negative = unlimited, zero = derive from the flat per-day budget)
		// is only meaningful when enabled.
		if n, ok := ints["stations"]; ok {
			if n <= 0 {
				return nil, eperr.New(eperr.BadConfig, "core",
					"stations must be a positive integer, got %d", n)
			}
			cfg.Constellation.Stations = int(n)
		}
		if v, ok := ints["contact_budget"]; ok {
			if !cfg.Constellation.Enabled() {
				return nil, eperr.New(eperr.BadConfig, "core",
					"contact_budget requires the constellation model (set stations)")
			}
			cfg.Constellation.ContactBudgetBytes = v
		}
		return New(env, cfg)
	})
}

// onOff decodes an "on" | "off" string knob; absent keeps def.
func onOff(spec registry.Spec, name string, def bool) (bool, error) {
	v, ok := spec.StrParam(name)
	switch {
	case !ok:
		return def, nil
	case v == "on" || v == "off":
		return v == "on", nil
	}
	return false, eperr.New(eperr.BadConfig, "core", "%s must be \"on\" or \"off\", got %q", name, v)
}
