// The sharded simulation engine. Every simulated day takes the same walk
// at every worker count: the day is split into per-location shards, a
// location's visit sequence is always processed in order by a single
// worker, distinct locations run on the shared bounded pool (par.For,
// which at one worker runs them inline, in location order), and the
// records are emitted in location order (day ascending, then location
// ascending, then visiting satellites in ascending id order). Day-end
// ground work (reference-upload packing) runs on a sequential barrier
// between days, because the uplink budget couples locations.
//
// Every satellite over a location on one day photographs the same sky:
// the ground truth, clouds and atmosphere depend on (loc, day) alone. A
// shard therefore synthesises its location's scene.Sky once, takes each
// visit's capture from it (adding only that satellite's illumination and
// sensor noise) and releases it after the last visit. The sky is a plain
// value owned by the shard, with no lock and no cache behind it.
//
// Constellation-scale runs invert the shape the sharding was built for:
// many satellites over few locations. When the requested worker count
// exceeds the location count, the surplus workers pre-generate the day's
// skies and then its captures across every (location, satellite) visit
// first — capture synthesis is a pure function of (loc, day, sat), so
// generation order is free — and the location shards then consume the
// ready captures in visit order; the skies are released once the shards
// finish. System state is still touched per location in order, so the
// records do not depend on the worker count.
//
// The engine guarantees determinism: because Systems only share state
// across locations at the day-end barrier, a run's WriteTrace bytes are
// identical at any worker count. There is no second walk to compare a run
// against, so the determinism matrix's golden trace digests are what pin
// the one-worker run.
package sim

import (
	"fmt"
	"math"
	"runtime"

	"earthplus/internal/par"
	"earthplus/internal/raster"
	"earthplus/internal/scene"
)

// RunStream simulates days [startDay, endDay) like Run, but hands each
// Record to emit in the deterministic serial order instead of retaining it.
// The returned Result carries the run's aggregates (System, Days,
// UpBytesByDay) with Records nil; a nil emit discards records. Experiments
// that only need aggregates use this with an Accumulator so that
// whole-constellation runs hold a bounded number of records in memory at
// once (at most one day's worth) instead of the full evaluation window.
func RunStream(env *Env, sys System, bootstrapFrom, startDay, endDay int, emit func(*Record)) (*Result, error) {
	if err := env.Orbit.Validate(); err != nil {
		return nil, err
	}
	if err := env.Downlink.Validate(); err != nil {
		return nil, err
	}
	if err := bootstrap(env, sys, bootstrapFrom, startDay); err != nil {
		return nil, err
	}
	res := &Result{System: sys.Name(), UpBytesByDay: make(map[int]int64), Days: endDay - startDay}
	grid := env.Scene.Grid()
	nLoc := env.Scene.NumLocations()
	// req is the full requested worker budget; pool is the slice of it that
	// can hold location shards. The difference (req > pool) pre-generates
	// captures across satellites — see the package comment.
	req := env.Parallelism
	if req <= 0 {
		req = runtime.GOMAXPROCS(0)
	}
	pool := par.Workers(req, nLoc)

	// shards[loc] is reused across days; records are emitted (and the
	// backing slices recycled) at the end of every day.
	shards := make([][]Record, nLoc)
	for day := startDay; day < endDay; day++ {
		if err := runDay(env, sys, grid, day, pool, req, shards, emit); err != nil {
			return nil, err
		}
		// Sequential day-end barrier: uplink packing couples locations
		// through the shared per-satellite budget, so it never runs
		// concurrently with captures.
		up, err := sys.OnDayEnd(day)
		if err != nil {
			return nil, fmt.Errorf("sim: %s day %d ground: %w", sys.Name(), day, err)
		}
		res.UpBytesByDay[day] = up
	}
	if cr, ok := sys.(ContactReporter); ok {
		res.Contacts = cr.ContactLog()
	}
	return res, nil
}

// runDay simulates one day's captures: the locations fan out over pool
// workers (at one worker they run inline, in location order), each
// location's visits run in order into shards[loc] from one sky per
// location, and the records are emitted in location order. When req
// exceeds pool, the day's skies and captures are pre-generated across
// every (location, satellite) visit first so fleet-scale runs over few
// locations still use the whole worker budget.
func runDay(env *Env, sys System, grid raster.TileGrid, day, pool, req int, shards [][]Record, emit func(*Record)) error {
	nLoc := len(shards)
	var pre [][]*scene.Capture
	if req > pool {
		var skies []*scene.Sky
		skies, pre = pregenerateCaptures(env, day, nLoc, req)
		defer func() {
			for _, k := range skies {
				env.Scene.ReleaseSky(k)
			}
		}()
	}
	errs := make([]error, nLoc)
	par.For(pool, nLoc, func(loc int) {
		recs := shards[loc][:0]
		sats := env.Orbit.VisitsOn(loc, day)
		var sky *scene.Sky
		if pre == nil && len(sats) > 0 {
			// One sky serves every visit; it outlives their captures.
			sky = env.Scene.Sky(loc, day)
			defer env.Scene.ReleaseSky(sky)
		}
		for vi, satID := range sats {
			var c *scene.Capture
			if sky != nil {
				c = sky.Capture(satID)
			} else {
				c, pre[loc][vi] = pre[loc][vi], nil
			}
			rec, err := processVisit(env, sys, grid, day, loc, satID, c)
			if err != nil {
				errs[loc] = err
				break
			}
			recs = append(recs, rec)
		}
		shards[loc] = recs
	})
	// Deterministic error selection: the lowest-location failure wins, and
	// the day emits no record.
	for _, err := range errs {
		if err != nil {
			// Recycle pre-generated captures the failed shard never reached.
			for _, locPre := range pre {
				for _, c := range locPre {
					if c != nil {
						env.Scene.ReleaseCapture(c)
					}
				}
			}
			return err
		}
	}
	if emit != nil {
		for loc := 0; loc < nLoc; loc++ {
			for i := range shards[loc] {
				emit(&shards[loc][i])
			}
		}
	}
	return nil
}

// pregenerateCaptures synthesises the day's skies, one per visited
// location, and then every (location, satellite) capture from them,
// each stage concurrently on workers goroutines. Capture content is a
// pure function of (loc, day, sat), so generation order does not affect
// results. The caller releases the skies once the captures are done.
func pregenerateCaptures(env *Env, day, nLoc, workers int) ([]*scene.Sky, [][]*scene.Capture) {
	type visit struct{ loc, idx, sat int }
	var visits []visit
	pre := make([][]*scene.Capture, nLoc)
	for loc := 0; loc < nLoc; loc++ {
		sats := env.Orbit.VisitsOn(loc, day)
		pre[loc] = make([]*scene.Capture, len(sats))
		for i, sat := range sats {
			visits = append(visits, visit{loc, i, sat})
		}
	}
	skies := make([]*scene.Sky, nLoc)
	par.For(workers, nLoc, func(loc int) {
		if len(pre[loc]) > 0 {
			skies[loc] = env.Scene.Sky(loc, day)
		}
	})
	par.For(workers, len(visits), func(i int) {
		v := visits[i]
		pre[v.loc][v.idx] = skies[v.loc].Capture(v.sat)
	})
	return skies, pre
}

// processVisit runs the system on one capture, evaluates the
// reconstruction and returns the capture's Record. The capture's image is
// recycled into the scene's pools afterwards; a shared sky's truth and
// mask stay with the sky.
func processVisit(env *Env, sys System, grid raster.TileGrid, day, loc, satID int, cap *scene.Capture) (Record, error) {
	out, err := sys.OnCapture(cap)
	if err != nil {
		env.Scene.ReleaseCapture(cap)
		return Record{}, fmt.Errorf("sim: %s day %d loc %d sat %d: %w", sys.Name(), day, loc, satID, err)
	}
	rec := Record{
		Day: day, Loc: loc, Sat: satID,
		Dropped:       out.Dropped,
		TrueCoverage:  cap.Coverage,
		DownBytes:     out.DownBytes,
		PerBandBytes:  out.PerBandBytes,
		RefAge:        out.RefAge,
		RefMiss:       out.RefMiss,
		Guaranteed:    out.Guaranteed,
		DownDropped:   out.DownDropped,
		DownCorrupted: out.DownCorrupted,
		PSNR:          math.NaN(),
	}
	if out.TotalTiles > 0 {
		rec.DownTileFrac = out.DownTilesPerBand / float64(out.TotalTiles)
	}
	if !out.Dropped && out.Recon != nil {
		rec.PSNR = EvalPSNR(cap, out.Recon, grid)
	}
	if env.Observer != nil && !out.Dropped && out.Recon != nil {
		env.Observer.ObserveVisit(&rec, cap, out.Recon, grid)
	}
	// The reconstruction is left to the collector: the scene's pools get
	// back every buffer they hand out, so pooling it too would only keep it
	// reachable longer and raise the heap target.
	env.Scene.ReleaseCapture(cap)
	return rec, nil
}
