package main

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"math"
	"runtime"
	"sort"
	"sync"
	"time"

	"earthplus/internal/core"
	"earthplus/internal/link"
	"earthplus/internal/orbit"
	"earthplus/internal/scene"
	"earthplus/internal/sim"
	"earthplus/pkg/earthplus"
)

// simWorkload is one end-to-end simulation workload: Earth+ over the
// rich-content scene, 8 satellites revisiting every 4 days, the uplink
// sized to raw references / 50 and γ = 1. A run is one or more episodes;
// each builds a fresh scene (its seed derived from the run seed and the
// episode index), wires a fresh system, bootstraps it (set-up) and
// simulates the whole window [40, 40+days) (measured), about 11 revisit
// cycles. The window is not cut short: the first cycles after a fresh
// bootstrap are a transient (sim-default, seed 0: days [40,45) average
// 38.3 dB and 355 kB of uplink a day, the whole window [40,85) 31.8 dB
// and 529 kB), so shorter episodes would measure a state the system
// leaves within days.
type simWorkload struct {
	name        string
	constrained bool
	days        int
	locations   int // 0 = all 11 locations of the preset
	setups      int // set-ups timed for setup_s, the episodes' own included
}

func (w simWorkload) workloadName() string { return w.name }

const (
	// simWindowSeconds turns -seconds into an episode count, so the work
	// a run does, and with it every deterministic metric, is a function of
	// -seconds alone and never of the host's speed. One window takes
	// about 25 s on a 2-core host.
	simWindowSeconds = 25.0

	simSatellites    = 8
	simRevisitDays   = 4
	simStartDay      = 40
	simUplinkDivisor = 50
)

// simSpec is the system configuration of the workload. sim-default keeps
// every knob at its default; sim-constrained turns on the compressed
// tiled store under a tight budget, a lossy link and one contended ground
// station, so the same layers take their other paths.
func (w simWorkload) simSpec(linkSeed uint64) earthplus.SystemSpec {
	if !w.constrained {
		return earthplus.SystemSpec{}
	}
	return earthplus.SystemSpec{
		Params: map[string]float64{
			"ref_downsample": 2,
			"storage_bytes":  400000,
			"link_loss":      0.01,
			"link_seed":      float64(linkSeed),
			"stations":       1,
		},
		StrParams: map[string]string{"ref_compression": "on", "tiled_store": "on"},
	}
}

// episodeSeed derives an episode's scene seed; seed 0, episode 0 is the
// preset itself.
func episodeSeed(base, seed uint64, e int) uint64 { return base + seed*1000 + uint64(e) }

// simProbe wraps the sim.System handed to sim.RunStream and times every
// call into it. OnCapture runs concurrently on distinct locations, so all
// state is under mu; the lock is never held across a call into the
// wrapped system.
type simProbe struct {
	inner sim.System
	tr    *tracer
	speed *speedProbe // sampled at every day-end barrier; nil on traced episodes
	op    int64       // the episode; groups its setup, run and day spans
	runID int64       // parent of the day spans
	setID int64       // parent of the bootstrap spans

	mu       sync.Mutex
	started  bool
	start    time.Time // first OnCapture: set-up ends, measuring begins
	probed   time.Duration
	memStart runtime.MemStats
	cpuStart time.Duration
	dayID    int64
	dayStart time.Time

	capLat        []time.Duration // non-dropped captures
	capBusy       time.Duration   // every capture, dropped ones included
	dropped       int
	cloud, change float64
	encode        float64
	dayEnd        []time.Duration
	dayWall       []time.Duration // each simulated day, captures and day end
	boot          time.Duration
}

func (p *simProbe) Name() string { return p.inner.Name() }

func (p *simProbe) Bootstrap(c *scene.Capture) error {
	t0 := time.Now()
	err := p.inner.Bootstrap(c)
	t1 := time.Now()
	p.tr.add("core.bootstrap", p.op, p.tr.newID(), p.setID, t0, t1)
	p.mu.Lock()
	p.boot += t1.Sub(t0)
	p.mu.Unlock()
	return err
}

// begin marks the end of set-up. Callers hold mu.
func (p *simProbe) begin(now time.Time) {
	p.started = true
	p.start = now
	p.dayID, p.dayStart = p.tr.newID(), now
	runtime.ReadMemStats(&p.memStart)
	p.cpuStart = processCPU()
}

func (p *simProbe) OnCapture(c *scene.Capture) (sim.Outcome, error) {
	p.mu.Lock()
	if !p.started {
		p.begin(time.Now())
	}
	dayID := p.dayID
	p.mu.Unlock()
	id := p.tr.newID()
	t0 := time.Now()
	out, err := p.inner.OnCapture(c)
	t1 := time.Now()
	p.tr.add("core.on_capture", id, id, dayID, t0, t1)
	d := t1.Sub(t0)
	p.mu.Lock()
	p.capBusy += d
	if out.Dropped {
		p.dropped++
	} else {
		p.capLat = append(p.capLat, d)
	}
	p.cloud += out.CloudSec
	p.change += out.ChangeSec
	p.encode += out.EncodeSec
	p.mu.Unlock()
	return out, err
}

func (p *simProbe) OnDayEnd(day int) (int64, error) {
	// The barrier is the one moment no capture runs, so the host-speed
	// sample goes here; it is kept out of every timing the run reports.
	var probe time.Duration
	probeStart := time.Now()
	if p.speed != nil {
		probe = p.speed.sample()
	}
	t0 := time.Now()
	up, err := p.inner.OnDayEnd(day)
	t1 := time.Now()
	p.mu.Lock()
	if !p.started {
		p.begin(t0)
		probe = 0
	}
	if probe > 0 {
		p.tr.add("bench.host_probe", p.op, p.tr.newID(), p.dayID, probeStart, probeStart.Add(probe))
	}
	p.probed += probe
	p.tr.add("core.on_day_end", p.op, p.tr.newID(), p.dayID, t0, t1)
	p.tr.add("sim.day", p.op, p.dayID, p.runID, p.dayStart, t1)
	p.dayEnd = append(p.dayEnd, t1.Sub(t0))
	p.dayWall = append(p.dayWall, t1.Sub(p.dayStart)-probe)
	p.dayID, p.dayStart = p.tr.newID(), t1
	p.mu.Unlock()
	return up, err
}

// ContactLog forwards sim.ContactReporter, so RunStream still attaches the
// wrapped system's contact log.
func (p *simProbe) ContactLog() []sim.ContactRecord {
	if cr, ok := p.inner.(sim.ContactReporter); ok {
		return cr.ContactLog()
	}
	return nil
}

// simTotals accumulates episodes of one kind (traced or not).
type simTotals struct {
	episodes  int
	setups    []float64
	dayWall   []time.Duration // every simulated day of every episode, in order
	measured  time.Duration
	captures  int
	delivered int
	psnrSum   float64
	psnrN     int
	downBytes int64
	upBytes   int64
	contacts  int
	days      int
	failed    int
	problems  []string
	digest    []byte

	capLat                []time.Duration
	capBusyAll            time.Duration
	dropped               int
	cloud, change, encode float64
	dayEnd                []time.Duration
	boot                  time.Duration
	alloc                 uint64
	gcCycles              uint32
	gcPause               time.Duration
	cpu                   time.Duration

	evictions, misses, decodes, lruHits int64
	decodeWall                          time.Duration
	residentBytes                       int64
	spliceRe, spliceTotal               int64
	linkFaults, retransmitBytes         int64
	stalls, maxBacklog                  int64
}

func (t *simTotals) problem(format string, args ...any) {
	if len(t.problems) < 8 {
		t.problems = append(t.problems, fmt.Sprintf(format, args...))
	}
}

// newEpisode builds episode e's scene, environment and system.
func (w simWorkload) newEpisode(seed uint64, e int) (*sim.Env, sim.System, error) {
	cfg := scene.RichContent(scene.Quick)
	cfg.Seed = episodeSeed(cfg.Seed, seed, e)
	if w.locations > 0 && w.locations < len(cfg.Locations) {
		cfg.Locations = cfg.Locations[:w.locations]
	}
	dov := orbit.DovesSpec()
	env := &sim.Env{
		Scene:             scene.New(cfg),
		Orbit:             orbit.Constellation{Satellites: simSatellites, RevisitDays: simRevisitDays},
		Downlink:          link.Budget{Bps: dov.DownlinkBps, SecondsPerContact: dov.ContactSeconds, ContactsPerDay: dov.ContactsPerDay},
		UplinkBytesPerDay: int64(cfg.Width*cfg.Height*len(cfg.Bands)*2*len(cfg.Locations)) / simUplinkDivisor,
	}
	sys, err := earthplus.NewSystem(earthplus.SystemEarthPlus, env, w.simSpec(episodeSeed(0, seed, e)))
	return env, sys, err
}

// setUp times episode e's set-up alone: scene, system and bootstrap, with
// no day simulated.
func (w simWorkload) setUp(seed uint64, e int) (float64, error) {
	runtime.GC()
	t0 := time.Now()
	env, sys, err := w.newEpisode(seed, e)
	if err == nil {
		_, err = sim.RunStream(env, sys, simStartDay-30, simStartDay, simStartDay, nil)
	}
	if err != nil {
		return 0, fmt.Errorf("%s: set-up: %w", w.name, err)
	}
	return time.Since(t0).Seconds(), nil
}

// runEpisode runs one episode and folds it into t, sampling the host's
// speed with speed (when not nil) at every day end.
func (w simWorkload) runEpisode(seed uint64, e int, tr *tracer, speed *speedProbe, t *simTotals) {
	runtime.GC() // every episode starts from a collected heap
	t0 := time.Now()
	env, sys, err := w.newEpisode(seed, e)
	t.episodes++
	if err != nil {
		t.failed++
		t.problem("episode %d: %v", e, err)
		return
	}
	p := &simProbe{inner: sys, tr: tr, speed: speed, op: int64(e), runID: tr.newID(), setID: tr.newID()}

	h := sha256.New()
	expected := 0
	for day := simStartDay; day < simStartDay+w.days; day++ {
		for loc := 0; loc < env.Scene.NumLocations(); loc++ {
			expected += len(env.Orbit.VisitsOn(loc, day))
		}
	}
	records := 0
	res, err := sim.RunStream(env, p, simStartDay-30, simStartDay, simStartDay+w.days, func(r *sim.Record) {
		records++
		hashRecord(h, r)
		var perBand int64
		for _, b := range r.PerBandBytes {
			perBand += b
		}
		bad := perBand != r.DownBytes
		if bad {
			t.problem("episode %d day %d loc %d sat %d: DownBytes %d != per-band sum %d", e, r.Day, r.Loc, r.Sat, r.DownBytes, perBand)
		}
		if !r.Dropped {
			t.delivered++
			t.downBytes += r.DownBytes
			if math.IsNaN(r.PSNR) || math.IsInf(r.PSNR, 0) {
				bad = true
				t.problem("episode %d day %d loc %d sat %d: delivered capture has PSNR %v", e, r.Day, r.Loc, r.Sat, r.PSNR)
			} else {
				t.psnrSum += r.PSNR
				t.psnrN++
			}
		}
		if bad {
			t.failed++
		}
	})
	end := time.Now()
	t.captures += records
	if err != nil {
		t.failed += max(1, expected-records)
		t.problem("episode %d: %v", e, err)
		return
	}
	if records != expected {
		t.failed += max(0, expected-records)
		t.problem("episode %d: %d records for %d orbit visits", e, records, expected)
	}
	days := make([]int, 0, len(res.UpBytesByDay))
	for d := range res.UpBytesByDay {
		days = append(days, d)
	}
	sort.Ints(days)
	var up int64
	for _, d := range days {
		up += res.UpBytesByDay[d]
		hashInts(h, int64(d), res.UpBytesByDay[d])
	}
	if w.constrained && res.Contacts == nil {
		t.failed++
		t.problem("episode %d: the contended station model left no contact log", e)
	}
	if res.Contacts != nil {
		t.contacts += len(res.Contacts)
		var ct int64
		for _, c := range res.Contacts {
			ct += c.Bytes
			hashInts(h, int64(c.Station), int64(c.Day), int64(c.Sat), int64(c.Window), c.Bytes)
		}
		if ct != up {
			t.failed++
			t.problem("episode %d: contact bytes %d != uplink bytes %d", e, ct, up)
		}
	}
	t.upBytes += up
	t.days += w.days
	t.digest = h.Sum(t.digest)

	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	cpu := processCPU()
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.started {
		t.failed++
		t.problem("episode %d: no capture and no day end ran", e)
		return
	}
	tr.add("sim.setup", p.op, p.setID, 0, t0, p.start)
	tr.add("sim.run", p.op, p.runID, 0, p.start, end)
	t.setups = append(t.setups, p.start.Sub(t0).Seconds())
	t.measured += end.Sub(p.start) - p.probed
	t.dayWall = append(t.dayWall, p.dayWall...)
	t.alloc += ms.TotalAlloc - p.memStart.TotalAlloc
	t.gcCycles += ms.NumGC - p.memStart.NumGC
	t.gcPause += time.Duration(ms.PauseTotalNs - p.memStart.PauseTotalNs)
	t.cpu += cpu - p.cpuStart
	t.capLat = append(t.capLat, p.capLat...)
	t.capBusyAll += p.capBusy
	t.dropped += p.dropped
	t.cloud += p.cloud
	t.change += p.change
	t.encode += p.encode
	t.dayEnd = append(t.dayEnd, p.dayEnd...)
	t.boot += p.boot

	cs, ok := sys.(*core.System)
	if !ok {
		return
	}
	ev, miss := cs.StorageStats()
	dec, hits := cs.DecodeStats()
	_, resident := cs.ResidentRefs()
	re, total := cs.SpliceTileStats()
	ls := cs.LinkStats()
	st := cs.ConstellationStats()
	t.evictions += ev
	t.misses += miss
	t.decodes += dec
	t.lruHits += hits
	t.decodeWall += cs.DecodeWall()
	t.residentBytes += resident
	t.spliceRe += re
	t.spliceTotal += total
	t.linkFaults += ls.UplinkDropped + ls.UplinkCorrupted + ls.UplinkContactsLost + ls.DownlinkDropped + ls.DownlinkCorrupted
	t.retransmitBytes += ls.RetransmitBytes
	t.stalls += st.Stalls
	t.maxBacklog = max(t.maxBacklog, st.MaxReseedBacklog)
}

// hashRecord feeds the fields sim.Record.EqualIgnoringTimings compares.
func hashRecord(h hash.Hash, r *sim.Record) {
	psnr := r.PSNR
	if math.IsNaN(psnr) {
		psnr = math.NaN() // one canonical NaN bit pattern
	}
	b := func(v bool) int64 {
		if v {
			return 1
		}
		return 0
	}
	hashInts(h, int64(r.Day), int64(r.Loc), int64(r.Sat), b(r.Dropped),
		int64(math.Float64bits(r.TrueCoverage)), r.DownBytes,
		int64(math.Float64bits(r.DownTileFrac)), int64(math.Float64bits(psnr)),
		int64(r.RefAge), b(r.RefMiss), b(r.Guaranteed), b(r.DownDropped), b(r.DownCorrupted))
	hashInts(h, r.PerBandBytes...)
}

// hashInts feeds vs to h little-endian, length-prefixed.
func hashInts(h hash.Hash, vs ...int64) {
	buf := binary.LittleEndian.AppendUint64(nil, uint64(len(vs)))
	for _, v := range vs {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(v))
	}
	h.Write(buf) // a hash.Hash never returns an error
}

// run executes the workload. It first times the set-ups the episodes do
// not provide, then runs the episodes. Untraced, it runs each episode
// once. Traced, it runs each twice, untraced and traced, alternating
// which goes first, so the tracing overhead compares the same days.
func (w simWorkload) run(o runOpts) (*outcome, error) {
	k := max(1, int(math.Round(o.seconds/simWindowSeconds)))
	var plain, traced simTotals
	var tr *tracer
	// Traced, each copy samples the host's speed at its own day ends, so
	// the overhead can discount a change of speed between the copies.
	var tracedSpeed *speedProbe
	if o.trace {
		tr, tracedSpeed = newTracer(), newSpeedProbe(runtime.NumCPU())
	}
	for i := k; i < w.setups; i++ {
		s, err := w.setUp(o.seed, 0)
		if err != nil {
			return nil, err
		}
		plain.setups = append(plain.setups, s)
	}
	for e := 0; e < k; e++ {
		switch {
		case !o.trace:
			w.runEpisode(o.seed, e, nil, o.speed, &plain)
		case (uint64(e)+o.seed)%2 == 0:
			w.runEpisode(o.seed, e, nil, o.speed, &plain)
			w.runEpisode(o.seed, e, tr, tracedSpeed, &traced)
		default:
			w.runEpisode(o.seed, e, tr, tracedSpeed, &traced)
			w.runEpisode(o.seed, e, nil, o.speed, &plain)
		}
	}
	out := &outcome{
		attempted: plain.captures + traced.captures,
		failed:    plain.failed + traced.failed,
		problems:  append(plain.problems, traced.problems...),
		digest:    fmt.Sprintf("%x", sha256.Sum256(plain.digest)),
		spans:     tr.snapshot(),
	}
	if o.trace && string(plain.digest) != string(traced.digest) {
		out.failed++
		out.problems = append(out.problems, "traced episodes produced different records than untraced ones")
	}
	out.attempted = max(out.attempted, 1)
	out.endToEnd = plain.endToEnd()
	s := o.speed.slowdown(0, o.speed.mark()) // sampled at every day end
	out.slowdown = map[string]float64{"throughput_per_s": s, "latency_p50_ms": s, "latency_p95_ms": s, "setup_s": s}
	if o.trace {
		out.perLayer = traced.perLayer(out.spans)
		// The median over days of the traced day's wall against the same
		// day untraced, which shrugs off a burst of host noise that a
		// ratio of two totals would carry, times the copies' speed ratio,
		// which takes out a drift of the host's speed between them.
		var rel []float64
		for d := range min(len(plain.dayWall), len(traced.dayWall)) {
			rel = append(rel, float64(traced.dayWall[d])/float64(plain.dayWall[d]))
		}
		drift := s / tracedSpeed.slowdown(0, tracedSpeed.mark())
		out.perLayer["trace_overhead_pct"] = 100 * (median(rel)*drift - 1)
	}
	out.invalid = w.mechanismCheck(&plain)
	out.detail = map[string]any{
		"episodes": k, "days_per_episode": w.days, "setups": len(plain.setups), "captures": plain.captures,
		"delivered": plain.delivered, "evictions": plain.evictions, "ref_decodes": plain.decodes,
		"link_faults": plain.linkFaults, "stalls": plain.stalls,
		"measured_s": plain.measured.Seconds(), "cpu_s": plain.cpu.Seconds(),
	}
	return out, nil
}

// endToEnd reports per delivered capture: the captures the cloud filter
// keeps, which are encoded, downlinked and applied. Their share moves by
// ~10% between scenes while the work per delivered capture does not.
func (t *simTotals) endToEnd() map[string]float64 {
	return map[string]float64{
		"throughput_per_s":        ratio(float64(t.delivered), t.measured.Seconds()),
		"latency_p50_ms":          percentileMs(t.capLat, 0.50),
		"latency_p95_ms":          percentileMs(t.capLat, 0.95),
		"mean_psnr_db":            ratio(t.psnrSum, float64(t.psnrN)),
		"compressed_bytes_per_op": ratio(float64(t.downBytes), float64(t.delivered)),
		"alloc_mb_per_op":         ratio(float64(t.alloc)/1e6, float64(t.delivered)),
		"setup_s":                 median(append([]float64(nil), t.setups...)),
	}
}

func (t *simTotals) perLayer(spans []span) map[string]float64 {
	self := selfSeconds(spans)
	dayEnd := sumSeconds(t.dayEnd)
	return map[string]float64{
		"sim.self_cpu_s":                   t.cpu.Seconds() - t.capBusyAll.Seconds() - dayEnd,
		"sim.barrier_share":                ratio(dayEnd, t.measured.Seconds()),
		"sim.day.self_s":                   self["sim.day"],
		"sim.setup.self_s":                 self["sim.setup"],
		"core.on_capture.count":            float64(len(t.capLat)),
		"core.on_capture.dropped":          float64(t.dropped),
		"core.on_capture.busy_s":           sumSeconds(t.capLat),
		"core.on_capture.p50_ms":           percentileMs(t.capLat, 0.50),
		"core.on_capture.p95_ms":           percentileMs(t.capLat, 0.95),
		"core.on_day_end.count":            float64(len(t.dayEnd)),
		"core.on_day_end.busy_s":           dayEnd,
		"core.on_day_end.p50_ms":           percentileMs(t.dayEnd, 0.50),
		"core.on_day_end.p75_ms":           percentileMs(t.dayEnd, 0.75),
		"core.bootstrap.busy_s":            t.boot.Seconds(),
		"cloud.busy_s":                     t.cloud,
		"change.busy_s":                    t.change,
		"codec.encode_busy_s":              t.encode,
		"sat.ref_decode_busy_s":            t.decodeWall.Seconds(),
		"sat.ref_decodes":                  float64(t.decodes),
		"sat.ref_lru_hit_ratio":            ratio(float64(t.lruHits), float64(t.decodes+t.lruHits)),
		"sat.evictions":                    float64(t.evictions),
		"sat.misses":                       float64(t.misses),
		"sat.resident_bytes":               ratio(float64(t.residentBytes), float64(t.episodes)),
		"station.ground_busy_s":            t.capBusyAll.Seconds() - t.cloud - t.change - t.encode - t.decodeWall.Seconds(),
		"station.splice_reencode_ratio":    ratio(float64(t.spliceRe), float64(t.spliceTotal)),
		"link.faults":                      float64(t.linkFaults),
		"link.retransmit_bytes":            float64(t.retransmitBytes),
		"link.uplink_bytes_per_day":        ratio(float64(t.upBytes), float64(t.days)),
		"constellation.stalls":             float64(t.stalls),
		"constellation.max_reseed_backlog": float64(t.maxBacklog),
		"go.gc_cycles":                     float64(t.gcCycles),
		"go.gc_pause_s":                    t.gcPause.Seconds(),
	}
}

// mechanismCheck names the reasons a run did not exercise what its
// workload exists for: sim-constrained must evict, decode stored
// references, see link faults and stall on the contended station;
// sim-default must do none of these.
func (w simWorkload) mechanismCheck(t *simTotals) []string {
	var why []string
	if w.constrained {
		for _, c := range []struct {
			n    int64
			what string
		}{{t.evictions, "evictions"}, {t.decodes, "reference decodes"}, {t.linkFaults, "link faults"}, {t.stalls, "contact stalls"}} {
			if c.n == 0 {
				why = append(why, w.name+" ran no "+c.what)
			}
		}
	} else if t.evictions+t.decodes+t.linkFaults+t.stalls != 0 {
		why = append(why, fmt.Sprintf("%s ran a bypassed mechanism (evictions %d, decodes %d, faults %d, stalls %d)",
			w.name, t.evictions, t.decodes, t.linkFaults, t.stalls))
	}
	return why
}
