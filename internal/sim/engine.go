// The sharded parallel simulation engine. One simulated day is split into
// per-location shards: a location's visit sequence is always processed in
// order by a single worker, distinct locations run concurrently on a
// bounded pool, and the resulting records are merged back into exactly the
// serial walk order (day ascending, then location ascending, then visiting
// satellites in ascending id order). Day-end ground work (reference-upload
// packing) runs on a sequential barrier between days, because the uplink
// budget couples locations.
//
// Constellation-scale runs invert the shape the sharding was built for:
// many satellites over few locations. When the requested worker count
// exceeds the location count, the surplus workers pre-generate the day's
// captures across every (location, satellite) visit first — capture
// synthesis is a pure function of (loc, day, sat), so generation order is
// free — and the location shards then consume the ready captures in visit
// order. System state is still touched per location in order, so results
// stay byte-identical to the serial walk at any worker count.
//
// The engine guarantees determinism: because Systems only share state
// across locations at the day-end barrier, a run's WriteTrace bytes are
// identical at any worker count, including the serial path.
package sim

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"earthplus/internal/raster"
	"earthplus/internal/scene"
)

// Workers resolves a requested simulation parallelism against n location
// shards, following the codec.Parallelism convention: values <= 0 mean
// GOMAXPROCS, and the pool never exceeds the shard count.
func Workers(requested, n int) int {
	p := requested
	if p <= 0 {
		p = runtime.GOMAXPROCS(0)
	}
	if p > n {
		p = n
	}
	if p < 1 {
		p = 1
	}
	return p
}

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
	pool := Workers(req, nLoc)

	// shards[loc] is reused across days; records are emitted (and the
	// backing slices recycled) at the end of every day.
	var shards [][]Record
	if req > 1 {
		shards = make([][]Record, nLoc)
	}
	for day := startDay; day < endDay; day++ {
		if req <= 1 {
			// Serial fast path: identical to the historical walk.
			for loc := 0; loc < nLoc; loc++ {
				for _, satID := range env.Orbit.VisitsOn(loc, day) {
					rec, err := processVisit(env, sys, grid, day, loc, satID, nil)
					if err != nil {
						return nil, err
					}
					if emit != nil {
						emit(&rec)
					}
				}
			}
		} else {
			if err := runDaySharded(env, sys, grid, day, pool, req, shards, emit); err != nil {
				return nil, err
			}
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

// runDaySharded fans one day's locations out over a bounded worker pool and
// merges the per-location records back in location order. When req exceeds
// the location pool, the day's captures are pre-generated across every
// (location, satellite) visit first so fleet-scale runs over few locations
// still use the full worker budget.
func runDaySharded(env *Env, sys System, grid raster.TileGrid, day, pool, req int, shards [][]Record, emit func(*Record)) error {
	nLoc := len(shards)
	var pre [][]*scene.Capture
	if req > pool {
		pre = pregenerateCaptures(env, day, nLoc, req)
	}
	errs := make([]error, nLoc)
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(pool)
	for i := 0; i < pool; i++ {
		go func() {
			defer wg.Done()
			for {
				loc := int(next.Add(1)) - 1
				if loc >= nLoc {
					return
				}
				recs := shards[loc][:0]
				for vi, satID := range env.Orbit.VisitsOn(loc, day) {
					var c *scene.Capture
					if pre != nil {
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
			}
		}()
	}
	wg.Wait()
	// Deterministic error selection: the lowest-location failure wins, as
	// it would in the serial walk (later locations may have already run —
	// their records are discarded, matching serial early-return).
	for loc := 0; loc < nLoc; loc++ {
		if errs[loc] != nil {
			// Recycle pre-generated captures the failed shard never reached.
			for _, locPre := range pre {
				for _, c := range locPre {
					if c != nil {
						env.Scene.ReleaseCapture(c)
					}
				}
			}
			return errs[loc]
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

// pregenerateCaptures synthesises every (location, satellite) capture of
// one day concurrently on workers goroutines. Capture content is a pure
// function of (loc, day, sat), so generation order does not affect results.
func pregenerateCaptures(env *Env, day, nLoc, workers int) [][]*scene.Capture {
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
	if workers > len(visits) {
		workers = len(visits)
	}
	if workers < 1 {
		workers = 1
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(visits) {
					return
				}
				v := visits[i]
				pre[v.loc][v.idx] = env.Scene.CaptureImage(v.loc, day, v.sat)
			}
		}()
	}
	wg.Wait()
	return pre
}

// processVisit generates one capture (or consumes the pre-generated one),
// runs the system on it, evaluates the reconstruction and returns the
// capture's Record. Capture buffers (and the system's reconstruction) are
// recycled into the scene's pools afterwards.
func processVisit(env *Env, sys System, grid raster.TileGrid, day, loc, satID int, pre *scene.Capture) (Record, error) {
	cap := pre
	if cap == nil {
		cap = env.Scene.CaptureImage(loc, day, satID)
	}
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
	// A well-behaved System returns a fresh reconstruction; guard against
	// one aliasing the capture so the pools never hold an image twice.
	if out.Recon != nil && out.Recon != cap.Image && out.Recon != cap.Truth {
		env.Scene.ReleaseImage(out.Recon)
	}
	env.Scene.ReleaseCapture(cap)
	return rec, nil
}
