package earthplus_test

import (
	"errors"
	"math"
	"testing"

	"earthplus/pkg/earthplus"
)

// testEnv builds a small 1-location environment that every registered
// system can simulate quickly.
func testEnv() *earthplus.Env {
	return &earthplus.Env{
		Scene:    earthplus.NewScene(earthplus.LargeConstellationSampled(earthplus.SizeQuick)),
		Orbit:    earthplus.Constellation{Satellites: 2, RevisitDays: 3},
		Downlink: earthplus.LinkBudget{Bps: 200e6, SecondsPerContact: 600, ContactsPerDay: 7},
	}
}

func TestBuiltinSystemsRegistered(t *testing.T) {
	names := earthplus.Systems()
	for _, want := range []string{earthplus.SystemEarthPlus, earthplus.SystemKodan, earthplus.SystemSatRoI} {
		found := false
		for _, n := range names {
			if n == want {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("system %q not registered (have %v)", want, names)
		}
	}
}

// TestEverySystemRoundTripsOneDay constructs every registered system by
// name and runs a one-day simulation end to end: the registry contract is
// that anything it returns satisfies System and survives the engine.
func TestEverySystemRoundTripsOneDay(t *testing.T) {
	for _, name := range earthplus.Systems() {
		t.Run(name, func(t *testing.T) {
			env := testEnv()
			sys, err := earthplus.NewSystem(name, env, earthplus.SystemSpec{GammaBPP: 1.0})
			if err != nil {
				t.Fatalf("NewSystem(%q): %v", name, err)
			}
			if sys.Name() == "" {
				t.Fatal("system reports an empty name")
			}
			res, err := earthplus.Run(env, sys, 0, 12, 13)
			if err != nil {
				t.Fatalf("1-day sim: %v", err)
			}
			if len(res.Records) == 0 {
				t.Fatal("no captures simulated")
			}
			sum := earthplus.Summarize(res, env.Downlink)
			if sum.Captures != len(res.Records) {
				t.Fatalf("summary counted %d captures for %d records", sum.Captures, len(res.Records))
			}
			for _, r := range res.Records {
				if !r.Dropped && !math.IsNaN(r.PSNR) && r.PSNR < 20 {
					t.Fatalf("implausible reconstruction PSNR %.1f", r.PSNR)
				}
			}
		})
	}
}

func TestUnknownSystemTypedError(t *testing.T) {
	_, err := earthplus.NewSystem("definitely-not-a-system", testEnv(), earthplus.SystemSpec{})
	if !errors.Is(err, earthplus.ErrUnknownSystem) {
		t.Fatalf("error %v is not ErrUnknownSystem", err)
	}
	if code, ok := earthplus.ErrorCodeOf(err); !ok || code != earthplus.CodeUnknownSystem {
		t.Fatalf("ErrorCodeOf = %q, %v", code, ok)
	}
}

func TestUnknownParamTypedError(t *testing.T) {
	spec := earthplus.SystemSpec{Params: map[string]float64{"guarantee_dayz": 3}}
	_, err := earthplus.NewSystem(earthplus.SystemEarthPlus, testEnv(), spec)
	if !errors.Is(err, earthplus.ErrBadConfig) {
		t.Fatalf("typo'd param error %v is not ErrBadConfig", err)
	}
}

// TestIntegerParamsRejectNonIntegers: an integer knob given a fractional,
// NaN or out-of-range value is a BadConfig error, never a silent
// truncation (ref_downsample 2.5 used to run at 2, guarantee_days 0.5 at
// 0). Each row carries the params its knob needs to be read at all.
func TestIntegerParamsRejectNonIntegers(t *testing.T) {
	rows := []struct {
		system, param string
		with          map[string]float64
	}{
		{earthplus.SystemEarthPlus, "ref_downsample", nil},
		{earthplus.SystemEarthPlus, "guarantee_days", nil},
		{earthplus.SystemEarthPlus, "link_seed", map[string]float64{"link_loss": 0.05}},
		{earthplus.SystemEarthPlus, "stations", nil},
		{earthplus.SystemEarthPlus, "contact_budget", map[string]float64{"stations": 1}},
		{earthplus.SystemEarthPlus, "storage_bytes", nil},
		{earthplus.SystemSatRoI, "storage_bytes", nil},
	}
	for _, row := range rows {
		for _, v := range []float64{2.5, math.NaN(), math.Inf(1), 1e19} {
			params := map[string]float64{row.param: v}
			for k, w := range row.with {
				params[k] = w
			}
			_, err := earthplus.NewSystem(row.system, testEnv(), earthplus.SystemSpec{Params: params})
			if !errors.Is(err, earthplus.ErrBadConfig) {
				t.Errorf("%s %s=%v: error %v, want ErrBadConfig", row.system, row.param, v, err)
			}
		}
	}
	// A negative seed cannot convert to the link's uint64 seed.
	spec := earthplus.SystemSpec{Params: map[string]float64{"link_loss": 0.05, "link_seed": -1}}
	if _, err := earthplus.NewSystem(earthplus.SystemEarthPlus, testEnv(), spec); !errors.Is(err, earthplus.ErrBadConfig) {
		t.Errorf("link_seed=-1: error %v, want ErrBadConfig", err)
	}
}

// TestSystemSpecParams drives an Earth+ ablation knob through the unified
// spec: disabling the guaranteed download must eliminate guaranteed
// records that the default config produces.
func TestSystemSpecParams(t *testing.T) {
	run := func(spec earthplus.SystemSpec) []earthplus.Record {
		env := testEnv()
		sys, err := earthplus.NewSystem(earthplus.SystemEarthPlus, env, spec)
		if err != nil {
			t.Fatal(err)
		}
		res, err := earthplus.Run(env, sys, 0, 40, 46)
		if err != nil {
			t.Fatal(err)
		}
		return res.Records
	}
	defRecs := run(earthplus.SystemSpec{Params: map[string]float64{"guarantee_days": 1}})
	offRecs := run(earthplus.SystemSpec{Params: map[string]float64{"guarantee_days": 1 << 20}})
	guarDef, guarOff := 0, 0
	for _, r := range defRecs {
		if r.Guaranteed {
			guarDef++
		}
	}
	for _, r := range offRecs {
		if r.Guaranteed {
			guarOff++
		}
	}
	if guarDef == 0 {
		t.Fatal("1-day guarantee period produced no guaranteed downloads")
	}
	if guarOff != 0 {
		t.Fatalf("disabled guarantee still produced %d guaranteed downloads", guarOff)
	}
}
