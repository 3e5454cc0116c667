// Package constellation models the fleet-scale ground segment the paper's
// deployment regime implies: N ground stations, each serving at most one
// satellite per contact window, with per-contact uplink budgets replacing
// the flat per-day budget, and a deterministic cross-satellite contact
// scheduler that lifts PackUplink's three-class priority (re-seeds →
// deltas → demoted) from within one satellite to across the fleet. It also
// carries the event-driven workload: wildfire/flood-style change events
// whose tracked metric is time-to-usable-image (events.go).
package constellation

import (
	"fmt"
	"sort"

	"earthplus/internal/sim"
)

// DefaultContactsPerStation is each station's daily contact-window count
// (the Doves Table 1 contact cadence, orbit.DovesSpec().ContactsPerDay).
const DefaultContactsPerStation = 7

// Config parameterises the contended ground-station model. The zero value
// (Stations 0) disables it, keeping the flat per-day uplink budget.
type Config struct {
	// Stations is the number of ground stations; each serves at most one
	// satellite per contact window. 0 disables the constellation model.
	Stations int
	// ContactsPerStation is each station's contact windows per day
	// (0 = DefaultContactsPerStation, the Doves cadence).
	ContactsPerStation int
	// ContactBudgetBytes is the uplink byte budget of ONE contact window.
	// 0 derives it from the environment's flat per-day budget divided by
	// ContactsPerStation (so a satellite that wins every window of one
	// station recovers its old daily budget); negative means unlimited.
	ContactBudgetBytes int64
}

// Enabled reports whether the contended ground-station model is on.
func (c Config) Enabled() bool { return c.Stations > 0 }

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.Stations < 0 {
		return fmt.Errorf("constellation: Stations must be non-negative, got %d", c.Stations)
	}
	if c.ContactsPerStation < 0 {
		return fmt.Errorf("constellation: ContactsPerStation must be non-negative, got %d", c.ContactsPerStation)
	}
	return nil
}

// contactsPerStation resolves the per-station window count.
func (c Config) contactsPerStation() int {
	if c.ContactsPerStation > 0 {
		return c.ContactsPerStation
	}
	return DefaultContactsPerStation
}

// WindowsPerDay is the fleet-wide contact capacity: every station's
// windows for one day.
func (c Config) WindowsPerDay() int { return c.Stations * c.contactsPerStation() }

// ResolveContactBudget resolves the per-contact uplink budget against the
// environment's flat per-day budget: an explicit positive budget wins, 0
// derives flatPerDay/ContactsPerStation, and a negative value (or a
// non-positive flat budget to derive from) means unlimited (-1).
func (c Config) ResolveContactBudget(flatPerDay int64) int64 {
	switch {
	case c.ContactBudgetBytes > 0:
		return c.ContactBudgetBytes
	case c.ContactBudgetBytes < 0:
		return -1
	case flatPerDay > 0:
		b := flatPerDay / int64(c.contactsPerStation())
		if b < 1 {
			b = 1
		}
		return b
	default:
		return -1
	}
}

// Demand summarises one satellite's pending uplink work for a day, counted
// per location in the same three classes PackUplink schedules within one
// satellite (station.Ground.PendingUplink computes it from mirror state).
type Demand struct {
	Sat int
	// Reseeds counts locations whose mirror is nil (evicted or
	// never-delivered references): the satellite is flying blind there.
	Reseeds int
	// Deltas counts locations holding a stale reference a routine delta
	// update would freshen.
	Deltas int
	// Demoted counts re-seeds past the retransmit bound, demoted behind
	// routine deltas.
	Demoted int
}

// Total is the satellite's pending location count.
func (d Demand) Total() int { return d.Reseeds + d.Deltas + d.Demoted }

// class ranks a demand for cross-satellite priority: satellites with any
// re-seed backlog outrank satellites with only routine deltas, which
// outrank satellites whose only pending work is demoted retransmits —
// PackUplink's class order lifted across the fleet.
func (d Demand) class() int {
	switch {
	case d.Reseeds > 0:
		return 0
	case d.Deltas > 0:
		return 1
	default:
		return 2
	}
}

// Stats aggregates a run's scheduling outcomes.
type Stats struct {
	// Contacts counts booked (station, window) slots.
	Contacts int64 `json:"contacts"`
	// Stalls counts satellite-days with pending uplink work that won no
	// contact window — the observable signal of station contention.
	Stalls int64 `json:"contention_stalls"`
	// ReseedBacklog sums, over scheduling days, the re-seed locations
	// pending fleet-wide at schedule time.
	ReseedBacklog int64 `json:"reseed_backlog"`
	// MaxReseedBacklog is the worst single-day re-seed backlog.
	MaxReseedBacklog int64 `json:"max_reseed_backlog"`
}

// Scheduler books satellites into station contact windows, one satellite
// per window, deterministically: demands are ordered by (class, pending
// count descending, satellite id), the first pass grants every demanding
// satellite at most one window, and — when contacts carry a finite byte
// budget — a second pass hands leftover windows back out in the same
// priority order so the fleet's capacity is never idle while work is
// pending. It runs on the engine's sequential day-end barrier and is not
// safe for concurrent use.
type Scheduler struct {
	cfg   Config
	stats Stats
}

// NewScheduler validates the configuration and returns a scheduler.
func NewScheduler(cfg Config) (*Scheduler, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if !cfg.Enabled() {
		return nil, fmt.Errorf("constellation: scheduler needs Stations > 0")
	}
	return &Scheduler{cfg: cfg}, nil
}

// Config returns the scheduler's configuration.
func (s *Scheduler) Config() Config { return s.cfg }

// Stats returns the aggregated scheduling outcomes so far.
func (s *Scheduler) Stats() Stats { return s.stats }

// Schedule books day's contact windows. Satellites with no pending work
// book nothing; satellites with pending work that win no window count as
// contention stalls. The returned contacts are sorted by (Sat, Station,
// Window) — the order the uplink packer consumes them in — with Bytes
// zero (the packer fills consumption in afterwards). Window slots are
// dealt round-robin across stations so consecutive priorities land on
// distinct stations.
func (s *Scheduler) Schedule(day int, demands []Demand) []sim.ContactRecord {
	active := make([]Demand, 0, len(demands))
	var reseeds int64
	for _, d := range demands {
		reseeds += int64(d.Reseeds)
		if d.Total() > 0 {
			active = append(active, d)
		}
	}
	s.stats.ReseedBacklog += reseeds
	if reseeds > s.stats.MaxReseedBacklog {
		s.stats.MaxReseedBacklog = reseeds
	}
	if len(active) == 0 {
		return nil
	}
	sort.Slice(active, func(i, j int) bool {
		if ci, cj := active[i].class(), active[j].class(); ci != cj {
			return ci < cj
		}
		if active[i].Total() != active[j].Total() {
			return active[i].Total() > active[j].Total()
		}
		return active[i].Sat < active[j].Sat
	})

	windows := s.cfg.WindowsPerDay()
	var contacts []sim.ContactRecord
	book := func(slot int, sat int) {
		contacts = append(contacts, sim.ContactRecord{
			Station: slot % s.cfg.Stations,
			Window:  slot / s.cfg.Stations,
			Sat:     sat,
			Day:     day,
		})
	}
	slot := 0
	for i := 0; i < len(active) && slot < windows; i++ {
		book(slot, active[i].Sat)
		slot++
	}
	if len(active) > windows {
		s.stats.Stalls += int64(len(active) - windows)
	}
	// Work-conserving second pass: with a finite per-contact budget, extra
	// windows mean extra bytes, so leftover capacity cycles back over the
	// demanding satellites in priority order. With an unlimited budget one
	// contact already carries everything, so extra windows would be noise.
	if s.cfg.ContactBudgetBytes >= 0 && len(active) > 0 {
		for i := 0; slot < windows; i++ {
			book(slot, active[i%len(active)].Sat)
			slot++
		}
	}
	s.stats.Contacts += int64(len(contacts))
	sort.Slice(contacts, func(i, j int) bool {
		if contacts[i].Sat != contacts[j].Sat {
			return contacts[i].Sat < contacts[j].Sat
		}
		if contacts[i].Station != contacts[j].Station {
			return contacts[i].Station < contacts[j].Station
		}
		return contacts[i].Window < contacts[j].Window
	})
	return contacts
}
