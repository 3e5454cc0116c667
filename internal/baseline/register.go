package baseline

import (
	"earthplus/internal/registry"
	"earthplus/internal/sim"
)

// Registry names of the two comparison systems.
const (
	KodanName  = "kodan"
	SatRoIName = "satroi"
)

// The baselines self-register so they are constructed by name through the
// same code path as Earth+. Kodan understands no system-specific params
// (it keeps no on-board reference state); SatRoI takes the shared storage
// knobs so the storage sweep can bound its full-resolution reference
// store. The registry rejects anything else.
func init() {
	registry.Register(KodanName, func(env *sim.Env, spec registry.Spec) (sim.System, error) {
		if err := registry.CheckParams(spec, KodanName); err != nil {
			return nil, err
		}
		if err := registry.CheckStrParams(spec, KodanName); err != nil {
			return nil, err
		}
		return NewKodan(env, spec.GammaBPP, spec.Codec)
	})
	registry.Register(SatRoIName, func(env *sim.Env, spec registry.Spec) (sim.System, error) {
		if err := registry.CheckParams(spec, SatRoIName, "storage_bytes"); err != nil {
			return nil, err
		}
		if err := registry.CheckStrParams(spec, SatRoIName, "evict_policy"); err != nil {
			return nil, err
		}
		storage, err := spec.StorageBytesParam()
		if err != nil {
			return nil, err
		}
		sc := SatRoIConfig{StorageBytes: storage}
		if v, ok := spec.StrParam("evict_policy"); ok {
			sc.EvictPolicy = v
		}
		return NewSatRoIWithConfig(env, spec.GammaBPP, spec.Codec, sc)
	})
}
