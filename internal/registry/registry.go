// Package registry is the single construction path for every compression
// system in the reproduction. Earth+, the baselines and any future
// ablation variants register a Factory under a stable lower-case name
// (core and baseline self-register in their init functions), and
// everything above — experiments, cmds, the HTTP serving layer and the
// public pkg/earthplus API — resolves systems by name through one unified
// Spec instead of calling divergent constructors.
package registry

import (
	"math"
	"sort"
	"sync"

	"earthplus/internal/codec"
	"earthplus/internal/eperr"
	"earthplus/internal/sim"
)

// Spec is the unified system configuration. The zero value means "the
// system's defaults"; systems read only the fields they understand.
type Spec struct {
	// GammaBPP is the paper's γ: bits per pixel spent on each downloaded
	// tile. Zero means the default 1.0.
	GammaBPP float64
	// Theta overrides the change-detection threshold where the system has
	// one (Earth+). Zero keeps the system default (or a profiled value).
	Theta float64
	// Codec configures the wavelet codec. Zero fields default
	// individually to codec.DefaultOptions' values, so an explicit
	// Levels or BudgetBytes survives an unset BaseStep and vice versa.
	Codec codec.Options
	// Params carries system-specific knobs by name ("guarantee_days",
	// "reject_cloud_frac", "storage_bytes", …). Presence is meaningful —
	// an explicit zero overrides the system default — and unknown keys
	// are a BadConfig error so typos cannot silently run the default
	// configuration.
	Params map[string]float64
	// StrParams carries system-specific string-valued knobs by name
	// ("evict_policy", …) with the same contract as Params: presence is
	// meaningful and unknown keys are a BadConfig error.
	StrParams map[string]string
}

// Normalize fills the Spec's zero values with the shared defaults.
func (s Spec) Normalize() Spec {
	if s.GammaBPP == 0 {
		s.GammaBPP = 1.0
	}
	def := codec.DefaultOptions()
	if s.Codec.Levels == 0 {
		s.Codec.Levels = def.Levels
	}
	if s.Codec.BaseStep == 0 {
		s.Codec.BaseStep = def.BaseStep
	}
	// BudgetBytes and Parallelism default to zero, which the codec
	// already treats as "unbudgeted" / "package default".
	return s
}

// Param returns the named knob and whether it was set.
func (s Spec) Param(name string) (float64, bool) {
	v, ok := s.Params[name]
	return v, ok
}

// StrParam returns the named string knob and whether it was set.
func (s Spec) StrParam(name string) (string, bool) {
	v, ok := s.StrParams[name]
	return v, ok
}

// IntParam returns the named knob as an integer and whether it was set.
// A fractional, NaN, infinite or out-of-range value is a BadConfig error,
// so an integer knob never silently truncates.
func (s Spec) IntParam(name string) (int64, bool, error) {
	v, ok := s.Params[name]
	if !ok {
		return 0, false, nil
	}
	if v != math.Trunc(v) || v < math.MinInt64 || v >= math.MaxInt64 {
		return 0, true, eperr.New(eperr.BadConfig, "registry", "param %q must be an integer, got %v", name, v)
	}
	return int64(v), true, nil
}

// StorageBytesParam decodes the shared "storage_bytes" knob into the
// store-budget convention every bounded reference store shares: absent
// returns 0 (the system default); an explicit non-positive value means
// "unlimited" and returns -1; a positive value is the budget in bytes.
// Every system with a bounded reference store decodes the knob through
// this one helper.
func (s Spec) StorageBytesParam() (int64, error) {
	v, ok, err := s.IntParam("storage_bytes")
	if ok && err == nil && v <= 0 {
		return -1, nil
	}
	return v, err
}

// Factory builds a configured system for an environment.
type Factory func(env *sim.Env, spec Spec) (sim.System, error)

var (
	mu        sync.RWMutex
	factories = map[string]Factory{}
)

// Register installs a factory under name. Registering an empty name, a
// nil factory, or a taken name panics: registration happens in package
// init functions, where a conflict is a programming error.
func Register(name string, f Factory) {
	if name == "" || f == nil {
		panic("registry: Register needs a name and a factory")
	}
	mu.Lock()
	defer mu.Unlock()
	if _, dup := factories[name]; dup {
		panic("registry: duplicate system " + name)
	}
	factories[name] = f
}

// New builds the named system, normalising the spec first. Unknown names
// return an UnknownSystem error listing what is registered.
func New(name string, env *sim.Env, spec Spec) (sim.System, error) {
	mu.RLock()
	f := factories[name]
	mu.RUnlock()
	if f == nil {
		return nil, eperr.New(eperr.UnknownSystem, "registry", "no system %q (registered: %v)", name, Names())
	}
	return f(env, spec.Normalize())
}

// Names lists the registered systems, sorted.
func Names() []string {
	mu.RLock()
	defer mu.RUnlock()
	out := make([]string, 0, len(factories))
	for name := range factories {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// CheckParams verifies that every Params key is among the allowed names,
// so factories reject typo'd knobs uniformly.
func CheckParams(spec Spec, system string, allowed ...string) error {
	for k := range spec.Params {
		if !nameAllowed(k, allowed) {
			return eperr.New(eperr.BadConfig, "registry", "system %q does not understand param %q (allowed: %v)", system, k, allowed)
		}
	}
	return nil
}

// CheckStrParams is CheckParams for the string-valued knobs.
func CheckStrParams(spec Spec, system string, allowed ...string) error {
	for k := range spec.StrParams {
		if !nameAllowed(k, allowed) {
			return eperr.New(eperr.BadConfig, "registry", "system %q does not understand string param %q (allowed: %v)", system, k, allowed)
		}
	}
	return nil
}

func nameAllowed(k string, allowed []string) bool {
	for _, a := range allowed {
		if k == a {
			return true
		}
	}
	return false
}
