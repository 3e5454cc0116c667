package core

import (
	"testing"

	"earthplus/internal/constellation"
	"earthplus/internal/registry"
	"earthplus/internal/sim"
)

// TestConstellationKnobContract pins the registry surface of the contended
// ground-station model: "stations" enables it, implied defaults resolve,
// and every inconsistent combination is rejected loudly.
func TestConstellationKnobContract(t *testing.T) {
	mk := func(params map[string]float64) (*System, error) {
		sys, err := registry.New(SystemName, planetEnv(), registry.Spec{Params: params})
		if err != nil {
			return nil, err
		}
		return sys.(*System), nil
	}

	// Explicit station count enables the scheduler.
	sys, err := mk(map[string]float64{"stations": 3})
	if err != nil {
		t.Fatal(err)
	}
	if sys.sched == nil || sys.sched.Config().Stations != 3 {
		t.Fatalf("stations=3 scheduler config: %+v", sys.sched)
	}

	// An explicit contact budget rides along; unlimited env budget still
	// honours the explicit cap.
	sys, err = mk(map[string]float64{"stations": 2, "contact_budget": 4096})
	if err != nil {
		t.Fatal(err)
	}
	if sys.ContactBudget() != 4096 {
		t.Fatalf("explicit contact budget resolved to %d", sys.ContactBudget())
	}

	// No param means no scheduler and no contact log.
	sys, err = mk(nil)
	if err != nil {
		t.Fatal(err)
	}
	if sys.sched != nil || sys.ContactLog() != nil {
		t.Fatal("a spec without stations built a scheduler")
	}
	if st := sys.ConstellationStats(); st != (constellation.Stats{}) {
		t.Fatalf("disabled model reports stats %+v", st)
	}

	bad := []struct {
		name   string
		params map[string]float64
	}{
		{"stations zero", map[string]float64{"stations": 0}},
		{"stations negative", map[string]float64{"stations": -2}},
		{"stations fractional", map[string]float64{"stations": 1.5}},
		{"contact budget without model", map[string]float64{"contact_budget": 1024}},
	}
	for _, tc := range bad {
		if _, err := mk(tc.params); err == nil {
			t.Fatalf("%s: accepted", tc.name)
		}
	}
}

// TestContendedRunDerivesBudgetAndLogsContacts: with a finite per-day
// uplink budget, the per-contact budget derives as flat/contacts-per-station
// and every delivered byte is logged against a booked contact.
func TestContendedRunDerivesBudgetAndLogsContacts(t *testing.T) {
	env := planetEnv()
	env.UplinkBytesPerDay = 14 << 10
	cfg := DefaultConfig()
	cfg.Constellation = constellation.Config{Stations: 2}
	sys, err := New(env, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := env.UplinkBytesPerDay / int64(constellation.DefaultContactsPerStation)
	if sys.ContactBudget() != want {
		t.Fatalf("derived contact budget = %d, want %d", sys.ContactBudget(), want)
	}
	res, err := sim.Run(env, sys, 0, 40, 52)
	if err != nil {
		t.Fatal(err)
	}
	contacts := sys.ContactLog()
	if len(contacts) == 0 {
		t.Fatal("contended run booked no contacts")
	}
	var fromContacts int64
	for _, ct := range contacts {
		if ct.Bytes > sys.ContactBudget() {
			t.Fatalf("contact %+v over the %d-byte budget", ct, sys.ContactBudget())
		}
		fromContacts += ct.Bytes
	}
	var fromDays int64
	for _, up := range res.UpBytesByDay {
		fromDays += up
	}
	if fromContacts != fromDays {
		t.Fatalf("contact log accounts %d uplink bytes, day accounting says %d", fromContacts, fromDays)
	}
	if st := sys.ConstellationStats(); st.Contacts != int64(len(contacts)) {
		t.Fatalf("stats count %d contacts, log holds %d", st.Contacts, len(contacts))
	}
}
