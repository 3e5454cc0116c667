// Package par is the repository's one bounded index-parallel worker pool.
// The codec's bands and tiles, the simulation engine's location shards and
// capture pregeneration, and the experiments' concurrent systems all run
// on For.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers resolves a requested worker count against n independent tasks:
// a value <= 0 means GOMAXPROCS, and the result is clamped to [1, n].
func Workers(requested, n int) int {
	if requested <= 0 {
		requested = runtime.GOMAXPROCS(0)
	}
	return max(1, min(requested, n))
}

// For calls fn(i) for every i in [0, n) and returns once every call has
// returned. With one worker (or n <= 1) it runs inline, in index order;
// otherwise min(workers, n) goroutines each pull the next unclaimed index.
// fn must be safe to call concurrently for distinct i.
func For(workers, n int, fn func(i int)) {
	if workers <= 1 || n <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	workers = min(workers, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				fn(i)
			}
		}()
	}
	wg.Wait()
}
