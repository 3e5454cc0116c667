package main

import (
	"crypto/sha256"
	"math"
	"slices"
	"sync"
	"time"
)

// The benchmark's host is a 2-core virtual machine shared with other
// tenants, and its speed drifts by 20% and more within minutes: every
// workload slows together, and CPU time inflates with wall time (it is
// not steal), so no statistic inside a 25 s run removes it. A fixed kernel
// that the benchmark owns tracks that drift when it runs interleaved with
// the work. Over 8 noisy minutes on 2 cores, with one kernel round after
// every 8 monolithic 192²x13 encodes and 8 decodes, 25 s stretches of
// encodes spread by 12% (interquartile range over the median) and their
// time over the kernel's by 5%; decodes by 15% and 6.5%.
//
// So each run samples the kernel all through its measured phase, where no
// request or capture is in flight (the simulation's day-end barrier, the
// gaps between serving chunks), keeps those samples out of every timing,
// and scales its end-to-end timings to the reference speed: a time (unit
// ms or s) is divided by the slowdown over the stretch that measured it
// and a rate (unit 1/s) multiplied by it. The raw values and the
// slowdowns are in the metadata line. No change to
// the program can move the kernel, so a change that makes the program
// faster or slower moves the scaled timings as much as the raw ones.

// refKernelMs is one kernel round's time on a quiet 2-core host of the
// kind the benchmark runs on (the fastest tenth of rounds on a 2-vCPU
// virtual machine read 19 ms or less; the median 25 ms).
const refKernelMs = 20.0

// speedProbe times kernel rounds: in a round each of nproc goroutines
// makes one kernel call, so it loads the cores the way the workloads do.
// It is not safe for concurrent use; callers sample where nothing else
// runs.
type speedProbe struct {
	work   []kernelState
	rounds []time.Duration
}

// kernelState is one goroutine's buffers, allocated once so a round
// neither allocates nor adds to the heap the workload's collector sees.
type kernelState struct {
	seed uint64
	wave []float32
	vals []float64
	hash []byte
}

func newSpeedProbe(workers int) *speedProbe {
	p := &speedProbe{work: make([]kernelState, max(1, workers))}
	for g := range p.work {
		p.work[g] = kernelState{seed: uint64(g + 1), wave: make([]float32, 1<<20),
			vals: make([]float64, 1<<14), hash: make([]byte, 1<<20)}
	}
	return p
}

// sample times one round and returns how long it took.
func (p *speedProbe) sample() time.Duration {
	t0 := time.Now()
	var wg sync.WaitGroup
	wg.Add(len(p.work))
	for g := range p.work {
		go func(k *kernelState) {
			defer wg.Done()
			k.run()
		}(&p.work[g])
	}
	wg.Wait()
	d := time.Since(t0)
	p.rounds = append(p.rounds, d)
	return d
}

// mark is the number of rounds sampled so far; a stretch of the run is the
// rounds between two marks.
func (p *speedProbe) mark() int { return len(p.rounds) }

// slowdown is the mean time of rounds [from, to) over the reference; 1.2
// means the host ran 20% slower than the reference. It is 1 for an empty
// stretch.
func (p *speedProbe) slowdown(from, to int) float64 {
	if to <= from {
		return 1
	}
	var total time.Duration
	for _, d := range p.rounds[from:to] {
		total += d
	}
	return ms(total) / float64(to-from) / refKernelMs
}

// run is one kernel call: pseudo-random square roots sorted in cache (the
// arithmetic), lifting passes over 4 MB of floats (the wavelet's
// streaming access) and a SHA-256 of 1 MB.
func (k *kernelState) run() {
	x := k.seed
	next := func() uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	for rep := 0; rep < 6; rep++ {
		for i := range k.vals {
			k.vals[i] = math.Sqrt(float64(next() >> 11))
		}
		slices.Sort(k.vals)
	}
	for i := range k.wave {
		k.wave[i] = float32(next()>>40) / (1 << 24)
	}
	for pass := 0; pass < 4; pass++ {
		for i := 1; i < len(k.wave)-1; i += 2 {
			k.wave[i] -= 0.5 * (k.wave[i-1] + k.wave[i+1])
		}
		for i := 2; i < len(k.wave)-1; i += 2 {
			k.wave[i] += 0.25 * (k.wave[i-1] + k.wave[i+1])
		}
	}
	for i := range k.hash {
		k.hash[i] = byte(math.Float32bits(k.wave[i]))
	}
	sum := sha256.Sum256(k.hash)
	k.hash[0] ^= sum[0] ^ byte(k.vals[0]) // keeps the work observable
}

// scaleToReference scales each end-to-end timing in m to the reference
// speed by slowdown[name], the slowdown over the stretch it was measured
// in, and returns the raw values it replaced. A timing without a slowdown
// is left as it is.
func scaleToReference(m, slowdown map[string]float64) map[string]float64 {
	raw := map[string]float64{}
	for _, def := range endToEnd {
		v, ok := m[def.Name]
		s := slowdown[def.Name]
		if !ok || s <= 0 {
			continue
		}
		switch def.Unit {
		case "ms", "s":
			raw[def.Name], m[def.Name] = v, v/s
		case "1/s":
			raw[def.Name], m[def.Name] = v, v*s
		}
	}
	return raw
}
