package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptrace"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"earthplus/internal/scene"
	"earthplus/pkg/earthplus"
	"earthplus/pkg/earthplus/serve"
)

// serveWorkload drives the serving tier in-process over a loopback
// listener with default serve.Config, from nproc keep-alive connections.
// A run has two measured phases:
//
//   - A, open loop: requests are due on a fixed schedule at refRate,
//     whatever the server's pace, and each is timed from its due time, so
//     a stall charges every request queued behind it. Latency comes from
//     here.
//   - B, closed loop: each connection sends its next request as soon as
//     the previous one returns. The completion rate of this phase is the
//     server's capacity on the workload's mix.
//
// Untraced, both phases run in one-second chunks with a host-speed sample
// between chunks (see hostspeed.go); each chunk ends when its last
// request has returned.
//
// Bodies and frames are captures of serveScenes LargeConstellationSampled
// scenes whose seeds derive from the run seed.
type serveWorkload struct {
	name     string
	ingest   bool // POST /v1/encode; otherwise POST /v1/decode
	size     int  // frame width and height
	distinct int  // ingest: payload pool; decode: frames
	refRate  float64
	setups   int
	// wrap, when set, wraps the server's handler; tests inject faults
	// with it.
	wrap func(http.Handler) http.Handler
}

func (w serveWorkload) workloadName() string { return w.name }

// Request classes, in the order of the per-class metrics.
const (
	encodeMono = iota
	encodeTiled
	decodeFull
	decodeRegion
	numClasses
)

var className = [numClasses]string{"encode_mono", "encode_tiled", "decode_full", "decode_region"}

const (
	regionSide   = 64 // decode regions are one 64x64 tile
	sampleEvery  = 8  // every 8th request's response is checked byte for byte
	drainTimeout = 2 * time.Second
	traceChunk   = 500 * time.Millisecond // traced runs alternate chunks of this much phase A
	probeChunk   = time.Second            // untraced runs sample the host's speed this often
	phaseAShare  = 0.6                    // shares of -seconds spent in phase A and B
	phaseBShare  = 0.3
	opHeader     = "X-Bench-Op"
)

// reqDesc is one request: its class, the payload or frame it uses, and
// the tile of a region decode. op numbers requests uniquely in a run.
type reqDesc struct {
	op    int64
	class int
	item  int
	tile  int
}

// serveState is one set-up: inputs, a listening server and a client.
type serveState struct {
	w      *serveWorkload
	scenes []*scene.Scene
	bodies [][]byte               // ingest: unstamped raw sample bodies
	frames []earthplus.Codestream // decode: frames, two in three tiled
	srv    *http.Server
	done   chan error
	base   string
	tr     *http.Transport
	client *http.Client
	bufs   sync.Pool
	hp     handlerProbe
}

// handlerProbe times the server's handler for requests that carry the op
// header (traced requests only).
type handlerProbe struct {
	mu    sync.Mutex
	times map[int64][2]time.Time
}

func (p *handlerProbe) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		opStr := r.Header.Get(opHeader)
		if opStr == "" {
			h.ServeHTTP(w, r)
			return
		}
		t0 := time.Now()
		h.ServeHTTP(w, r)
		t1 := time.Now()
		op, err := strconv.ParseInt(opStr, 10, 64)
		if err != nil {
			return
		}
		p.mu.Lock()
		p.times[op] = [2]time.Time{t0, t1}
		p.mu.Unlock()
	})
}

func (p *handlerProbe) get(op int64) ([2]time.Time, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	t, ok := p.times[op]
	return t, ok
}

// serveScenes is how many scenes, each its own terrain, the inputs are
// drawn from; one terrain alone moves PSNR by several percent between
// seeds.
const serveScenes = 8

// capture synthesises input i as raw samples: scene i%serveScenes, on its
// own day and satellite.
func (st *serveState) capture(i int) []byte {
	sc := st.scenes[i%len(st.scenes)]
	c := sc.CaptureImage(0, 40+i/len(st.scenes), i%8)
	b := imageSamples(c.Image)
	sc.ReleaseCapture(c)
	return b
}

// setup builds the inputs, starts the server and warms every connection.
func (w *serveWorkload) setup(seed uint64, conns int) (*serveState, error) {
	cfg := scene.LargeConstellationSampled(scene.Full)
	cfg.Width, cfg.Height = w.size, w.size
	st := &serveState{w: w, hp: handlerProbe{times: map[int64][2]time.Time{}}}
	base := cfg.Seed
	for i := 0; i < serveScenes; i++ {
		cfg.Seed = episodeSeed(base, seed, i)
		st.scenes = append(st.scenes, scene.New(cfg))
	}
	st.bufs.New = func() any { return new([]byte) }
	if w.ingest {
		st.bodies = make([][]byte, w.distinct)
		parallel(w.distinct, func(i int) { st.bodies[i] = st.capture(i) })
	} else {
		st.frames = make([]earthplus.Codestream, w.distinct)
		errs := make([]error, w.distinct)
		parallel(w.distinct, func(i int) {
			img := samplesImage(st.capture(i), w.size, w.size, len(cfg.Bands))
			st.frames[i], errs[i] = earthplus.EncodeFrame(context.Background(), img,
				earthplus.EncodeOptions{BPP: 1, Tiled: frameTiled(i)})
		})
		if err := errors.Join(errs...); err != nil {
			return nil, fmt.Errorf("%s: encoding frames: %w", w.name, err)
		}
	}
	if err := st.start(conns); err != nil {
		return nil, err
	}
	return st, nil
}

// twin returns a set-up sharing st's inputs, not yet started.
func (st *serveState) twin() *serveState {
	t := &serveState{w: st.w, scenes: st.scenes, bodies: st.bodies, frames: st.frames,
		hp: handlerProbe{times: map[int64][2]time.Time{}}}
	t.bufs.New = st.bufs.New
	return t
}

// start brings up a fresh server with an empty result cache on a loopback
// listener, and a client, and warms every connection.
func (st *serveState) start(conns int) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("%s: %w", st.w.name, err)
	}
	h := st.hp.wrap(serve.New(serve.Config{}).Handler())
	if st.w.wrap != nil {
		h = st.w.wrap(h)
	}
	st.srv = &http.Server{Handler: h}
	st.done = make(chan error, 1)
	go func() { st.done <- st.srv.Serve(ln) }()
	st.base = "http://" + ln.Addr().String()
	st.tr = &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true}
	st.client = &http.Client{Transport: st.tr}
	if err := st.warm(conns); err != nil {
		st.close()
		return fmt.Errorf("%s: warm-up: %w", st.w.name, err)
	}
	return nil
}

// frameTiled reports whether decode frame i uses the tiled profile.
func frameTiled(i int) bool { return i%3 != 2 }

// warm opens every connection with small requests outside the measured
// key space.
func (st *serveState) warm(conns int) error {
	const side = 64
	img := samplesImage(make([]byte, side*side*2), side, side, 1)
	frame, err := earthplus.EncodeFrame(context.Background(), img, earthplus.EncodeOptions{BPP: 1, Tiled: true})
	if err != nil {
		return err
	}
	errs := make([]error, 2*conns)
	parallelN(2*conns, 2*conns, func(i int) {
		path, body := "/v1/decode", []byte(frame)
		if i%2 == 0 {
			path = fmt.Sprintf("/v1/encode?width=%d&height=%d&bands=1&bpp=1", side, side)
			body = make([]byte, side*side*2)
			binary.LittleEndian.PutUint16(body, uint16(i))
		}
		resp, err := st.client.Post(st.base+path, "application/octet-stream", bytes.NewReader(body))
		if err != nil {
			errs[i] = err
			return
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			errs[i] = fmt.Errorf("status %d", resp.StatusCode)
		}
	})
	return errors.Join(errs...)
}

func (st *serveState) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := st.srv.Shutdown(ctx); err != nil {
		st.srv.Close() // a connection still busy after 5 s is cut
	}
	<-st.done
	st.tr.CloseIdleConnections()
}

// reqTiming is what the client saw of one request.
type reqTiming struct {
	d                        reqDesc
	due, sent, gotConn, done time.Time
	ok                       bool
	failure                  string
	malformed                bool // the response did not parse with the right dimensions
	respLen                  int
	sample                   []byte // ingest: the response frame of a sampled request
	sampleSum                [32]byte
}

func (st *serveState) path(d reqDesc) string {
	w := st.w
	switch d.class {
	case encodeMono:
		return fmt.Sprintf("/v1/encode?width=%d&height=%d&bands=4&bpp=1", w.size, w.size)
	case encodeTiled:
		return fmt.Sprintf("/v1/encode?width=%d&height=%d&bands=4&bpp=1&tiled=1", w.size, w.size)
	case decodeRegion:
		x, y := st.tileXY(d.tile)
		return fmt.Sprintf("/v1/decode?x=%d&y=%d&w=%d&h=%d", x, y, regionSide, regionSide)
	}
	return "/v1/decode"
}

func (st *serveState) tileXY(t int) (int, int) {
	per := st.w.size / regionSide
	return (t % per) * regionSide, (t / per) * regionSide
}

// stamped returns input d.item's body with d.op in its first sample, so
// every encode request is distinct.
func stamped(dst []byte, body []byte, op int64) []byte {
	dst = append(dst[:0], body...)
	binary.LittleEndian.PutUint16(dst, uint16(op))
	return dst
}

// do sends one request and reads its response.
func (st *serveState) do(ctx context.Context, d reqDesc, due time.Time, traced bool) reqTiming {
	rt := reqTiming{d: d, due: due}
	var body io.Reader
	if !st.w.ingest {
		body = bytes.NewReader(st.frames[d.item])
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, st.base+st.path(d), body)
	if err != nil {
		rt.failure = err.Error()
		return rt
	}
	if st.w.ingest {
		// The transport may still hold the body after Do returns; the
		// pooled buffer goes back only once the transport has closed it.
		bp := st.bufs.Get().(*[]byte)
		*bp = stamped(*bp, st.bodies[d.item], d.op)
		body := &closeWait{Reader: bytes.NewReader(*bp), closed: make(chan struct{})}
		defer func() { <-body.closed; st.bufs.Put(bp) }()
		req.Body, req.ContentLength = body, int64(len(*bp))
	}
	if traced {
		req.Header.Set(opHeader, strconv.FormatInt(d.op, 10))
		req = req.WithContext(httptrace.WithClientTrace(ctx, &httptrace.ClientTrace{
			GotConn: func(httptrace.GotConnInfo) { rt.gotConn = time.Now() },
		}))
	}
	rt.sent = time.Now()
	resp, err := st.client.Do(req)
	if err != nil {
		rt.failure = err.Error()
		return rt
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		_, _ = io.Copy(io.Discard, resp.Body)
		rt.failure = "status " + strconv.Itoa(resp.StatusCode)
		return rt
	}
	sampled := d.op%sampleEvery == 0
	if st.w.ingest {
		var buf bytes.Buffer
		if _, err := buf.ReadFrom(resp.Body); err != nil {
			rt.failure = err.Error()
			return rt
		}
		rt.done = time.Now()
		rt.respLen = buf.Len()
		fw, fh, fb, err := earthplus.FrameDims(earthplus.Codestream(buf.Bytes()))
		if err != nil || fw != st.w.size || fh != st.w.size || fb != 4 {
			rt.failure = fmt.Sprintf("response frame %dx%dx%d (%v)", fw, fh, fb, err)
			rt.malformed = true
			return rt
		}
		if sampled {
			rt.sample = buf.Bytes()
		}
	} else {
		want := st.w.size
		if d.class == decodeRegion {
			want = regionSide
		}
		h := sha256.New()
		n, err := io.Copy(h, resp.Body)
		if err != nil {
			rt.failure = err.Error()
			return rt
		}
		rt.done = time.Now()
		rt.respLen = int(n)
		if resp.Header.Get("X-Earthplus-Width") != strconv.Itoa(want) ||
			resp.Header.Get("X-Earthplus-Height") != strconv.Itoa(want) ||
			resp.Header.Get("X-Earthplus-Bands") != "4" || n != int64(want*want*4*2) {
			rt.failure = fmt.Sprintf("response %s x %s x %s, %d bytes; want %dx%dx4",
				resp.Header.Get("X-Earthplus-Width"), resp.Header.Get("X-Earthplus-Height"),
				resp.Header.Get("X-Earthplus-Bands"), n, want, want)
			rt.malformed = true
			return rt
		}
		h.Sum(rt.sampleSum[:0])
	}
	rt.ok = true
	return rt
}

// closeWait is a request body that reports when the transport has
// closed it.
type closeWait struct {
	*bytes.Reader
	once   sync.Once
	closed chan struct{}
}

func (c *closeWait) Close() error {
	c.once.Do(func() { close(c.closed) })
	return nil
}

// gen draws the request mix from a seeded stream. Encode requests
// alternate the tiled and monolithic profiles by op, so the share is
// exactly half, over a random payload. Decode requests are 70% 64x64
// regions and 30% full decodes, with frame and tile drawn Zipf(1.1) by
// index, so popular keys repeat (cache hits) while the full decodes'
// working set exceeds the 64 MiB result cache (misses). The popularity ranks map to frames and profiles
// the same way for every seed; only the imagery and the draws change.
type gen struct {
	w     *serveWorkload
	rng   *rand.Rand
	frame *rand.Zipf
	tile  *rand.Zipf
}

func newGen(w *serveWorkload, seed int64) *gen {
	rng := rand.New(rand.NewSource(seed))
	tiles := (w.size / regionSide) * (w.size / regionSide)
	return &gen{w: w, rng: rng,
		frame: rand.NewZipf(rng, 1.1, 1, uint64(w.distinct-1)),
		tile:  rand.NewZipf(rng, 1.1, 1, uint64(tiles-1))}
}

func (g *gen) next(op int64) reqDesc {
	if g.w.ingest {
		class := encodeTiled
		if op%2 == 1 {
			class = encodeMono
		}
		return reqDesc{op: op, class: class, item: g.rng.Intn(g.w.distinct)}
	}
	d := reqDesc{op: op, class: decodeFull, item: int(g.frame.Uint64())}
	if g.rng.Float64() < 0.7 {
		d.class, d.tile = decodeRegion, int(g.tile.Uint64())
	}
	return d
}

// openLoop sends descs on schedule at rate and waits for them; requests
// still running drainTimeout after the last due time are cancelled and
// count as failed.
func (st *serveState) openLoop(descs []reqDesc, rate float64, traced bool) ([]reqTiming, []time.Duration) {
	timings := make([]reqTiming, len(descs))
	late := make([]time.Duration, len(descs))
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var wg sync.WaitGroup
	start := time.Now().Add(10 * time.Millisecond)
	var due time.Time
	for i, d := range descs {
		due = start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
		if dt := time.Until(due); dt > 0 {
			time.Sleep(dt)
		}
		late[i] = time.Since(due)
		wg.Add(1)
		go func(i int, d reqDesc, due time.Time) {
			defer wg.Done()
			timings[i] = st.do(ctx, d, due, traced)
		}(i, d, due)
	}
	stop := time.AfterFunc(time.Until(due.Add(drainTimeout)), cancel)
	wg.Wait()
	stop.Stop()
	return timings, late
}

// closedLoop runs one back-to-back request stream per generator for dur,
// numbering requests after firstOp, and returns every request made with
// the elapsed time.
func (st *serveState) closedLoop(gens []*gen, dur time.Duration, firstOp int64) ([]reqTiming, time.Duration) {
	var op atomic.Int64
	op.Store(firstOp)
	per := make([][]reqTiming, len(gens))
	start := time.Now()
	deadline := start.Add(dur)
	var wg sync.WaitGroup
	wg.Add(len(gens))
	for c, g := range gens {
		go func(c int, g *gen) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				per[c] = append(per[c], st.do(context.Background(), g.next(op.Add(1)), time.Now(), false))
			}
		}(c, g)
	}
	wg.Wait()
	elapsed := time.Since(start)
	var all []reqTiming
	for _, p := range per {
		all = append(all, p...)
	}
	return all, elapsed
}

// scrape reads the serving tier's own counters from /metrics.
func (st *serveState) scrape() (map[string]float64, error) {
	resp, err := st.client.Get(st.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		name := line[:i]
		if j := strings.IndexByte(name, '{'); j >= 0 && !strings.HasPrefix(name, "earthplus_cache_hits_total") {
			name = name[:j]
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[name] += v
		}
	}
	return out, sc.Err()
}

// run sets up setups times (the last set-up is the one measured) and runs
// the phases. Traced, phase B does not run; phase A runs twice, untraced
// on the measured server and traced on a twin server with an empty cache
// of its own, in alternating chunks, so every request has an untraced
// twin with the same key and cache history sent within seconds of it. The
// tracing overhead is the median latency ratio over these pairs.
func (w serveWorkload) run(o runOpts) (*outcome, error) {
	conns := runtime.NumCPU()
	var st *serveState
	var setupTimes []float64
	for i := 0; i < max(1, w.setups); i++ {
		if st != nil {
			st.close()
		}
		t0 := time.Now()
		var err error
		if st, err = w.setup(o.seed, conns); err != nil {
			return nil, err
		}
		setupTimes = append(setupTimes, time.Since(t0).Seconds())
		runtime.GC() // each set-up, and then the phases, start from a collected heap
	}
	defer func() { st.close() }()

	share := phaseAShare
	if o.trace {
		share += phaseBShare // the pairs need the samples more than phase B
	}
	g := newGen(&w, int64(o.seed))
	descs := make([]reqDesc, max(1, int(math.Round(w.refRate*o.seconds*share))))
	for i := range descs {
		descs[i] = g.next(int64(i))
	}
	probed := st // the server whose counters are read
	if o.trace {
		probed = st.twin()
		if err := probed.start(conns); err != nil {
			return nil, err
		}
		defer probed.close()
	}
	before, err := probed.scrape()
	if err != nil {
		return nil, fmt.Errorf("%s: scraping /metrics: %w", w.name, err)
	}
	var timA, timB, timT []reqTiming
	var lateness []time.Duration
	var elapsedB time.Duration
	var slowdown map[string]float64
	var ms0, msA, ms1 runtime.MemStats // msA: after phase A, whose request set is fixed
	runtime.ReadMemStats(&ms0)
	if !o.trace {
		// Both phases run in chunks of probeChunk, and the host's speed is
		// sampled between chunks, when no request is in flight.
		chunk := max(1, int(w.refRate*probeChunk.Seconds()))
		for lo := 0; lo < len(descs); lo += chunk {
			o.speed.sample()
			t, l := st.openLoop(descs[lo:min(len(descs), lo+chunk)], w.refRate, false)
			timA, lateness = append(timA, t...), append(lateness, l...)
		}
		runtime.ReadMemStats(&msA)
		markB := o.speed.mark()
		gens := make([]*gen, conns)
		for c := range gens {
			gens[c] = newGen(&w, int64(o.seed)+1+int64(c))
		}
		op := int64(len(descs))
		for left := time.Duration(o.seconds * phaseBShare * float64(time.Second)); left > 0; left -= probeChunk {
			o.speed.sample()
			t, elapsed := st.closedLoop(gens, min(left, probeChunk), op)
			timB, elapsedB, op = append(timB, t...), elapsedB+elapsed, op+int64(len(t))
		}
		o.speed.sample()
		// Each timing is scaled by the host's speed over the phase that
		// measured it; set-up is scaled with phase A, which follows it.
		a, b := o.speed.slowdown(0, markB), o.speed.slowdown(markB, o.speed.mark())
		slowdown = map[string]float64{"latency_p50_ms": a, "latency_p95_ms": a, "setup_s": a, "throughput_per_s": b}
	} else {
		chunk := max(1, int(w.refRate*traceChunk.Seconds()))
		for c, lo := 0, 0; lo < len(descs); c, lo = c+1, lo+chunk {
			part := descs[lo:min(len(descs), lo+chunk)]
			plain := func() {
				t, l := st.openLoop(part, w.refRate, false)
				timA, lateness = append(timA, t...), append(lateness, l...)
			}
			traced := func() {
				t, _ := probed.openLoop(part, w.refRate, true)
				timT = append(timT, t...)
			}
			if c%2 == 0 {
				plain()
				traced()
			} else {
				traced()
				plain()
			}
		}
	}
	runtime.ReadMemStats(&ms1)
	after, err := probed.scrape()
	if err != nil {
		return nil, fmt.Errorf("%s: scraping /metrics: %w", w.name, err)
	}

	all := append(append(append([]reqTiming(nil), timA...), timB...), timT...)
	out := &outcome{attempted: len(all), slowdown: slowdown}
	failures := map[string]int{}
	malformed := 0
	for _, t := range all {
		if !t.ok {
			out.failed++
			failures[t.failure]++
		}
		if t.malformed {
			malformed++
		}
	}
	if malformed > 0 {
		out.problems = append(out.problems, fmt.Sprintf("%d responses did not parse with the right dimensions", malformed))
	}
	psnr, bytesPerOp, mismatches, err := st.verify(timA, append(timB, timT...))
	if err != nil {
		return nil, err
	}
	if mismatches > 0 {
		out.failed += mismatches
		out.problems = append(out.problems, fmt.Sprintf("%d sampled responses differ from the library's own output", mismatches))
	}

	counter := func(name string) float64 { return after[name] - before[name] }
	hits := counter(`earthplus_cache_hits_total{tier="mem"}`) + counter(`earthplus_cache_hits_total{tier="disk"}`)
	misses := counter("earthplus_cache_misses_total")
	latenessP95 := percentileMs(lateness, 0.95)
	if latenessP95 > 2 {
		out.invalid = append(out.invalid, fmt.Sprintf("load generator ran late: p95 lateness %.2f ms > 2 ms", latenessP95))
	}
	switch {
	case w.ingest && hits > 0:
		out.invalid = append(out.invalid, fmt.Sprintf("%s hit the result cache %v times; every body must be distinct", w.name, hits))
	case !w.ingest && (hits == 0 || misses == 0):
		out.invalid = append(out.invalid, fmt.Sprintf("%s needs both cache hits and misses, got %v and %v", w.name, hits, misses))
	}
	out.detail = map[string]any{
		"phase_a_requests": len(descs), "phase_a_rate": w.refRate, "phase_b_requests": len(timB),
		"conns": conns, "cache_hits": hits, "cache_misses": misses, "failures": failures,
		"lateness_p95_ms": latenessP95,
	}

	if !o.trace {
		lat := make([]time.Duration, len(timA))
		for i, t := range timA {
			lat[i] = latency(t)
		}
		okB := 0
		for _, t := range timB {
			if t.ok {
				okB++
			}
		}
		out.endToEnd = map[string]float64{
			"throughput_per_s":        ratio(float64(okB), elapsedB.Seconds()),
			"latency_p50_ms":          percentileMs(lat, 0.50),
			"latency_p95_ms":          percentileMs(lat, 0.95),
			"mean_psnr_db":            psnr,
			"compressed_bytes_per_op": bytesPerOp,
			"alloc_mb_per_op":         ratio(float64(msA.TotalAlloc-ms0.TotalAlloc)/1e6, float64(len(timA))),
			"setup_s":                 median(setupTimes),
		}
		return out, nil
	}
	if out.spans, out.perLayer, err = probed.traceMetrics(timT); err != nil {
		return nil, err
	}
	var rel []float64
	for i := range timT {
		if timA[i].ok && timT[i].ok {
			rel = append(rel, float64(latency(timT[i]))/float64(latency(timA[i])))
		}
	}
	out.perLayer["trace_overhead_pct"] = 100 * (median(rel) - 1)
	out.perLayer["loadgen.lateness_p95_ms"] = latenessP95
	out.perLayer["serve.cache_hit_ratio"] = ratio(hits, hits+misses)
	out.perLayer["serve.coalesced"] = counter("earthplus_coalesced_requests_total")
	out.perLayer["serve.errors"] = counter("earthplus_http_errors_total")
	out.perLayer["go.gc_cycles"] = float64(ms1.NumGC - ms0.NumGC)
	out.perLayer["go.gc_pause_s"] = float64(ms1.PauseTotalNs-ms0.PauseTotalNs) / 1e9
	return out, nil
}

// latency is a request's time from its due time to its last response
// byte; a failed request misses any latency limit.
func latency(t reqTiming) time.Duration {
	if !t.ok {
		return time.Hour
	}
	return t.done.Sub(t.due)
}

// verify checks every sampled response of both phases byte for byte
// against what pkg/earthplus produces on the same input, and computes the
// phase-A quality and size figures: the PSNR of the sampled responses
// against the source imagery and the compressed bytes per request (the
// response frame of an encode, the request frame of a decode).
func (st *serveState) verify(timA, timB []reqTiming) (psnr, bytesPerOp float64, mismatches int, err error) {
	ctx := context.Background()
	w := st.w
	var byteSum float64
	for _, t := range timA {
		if w.ingest {
			byteSum += float64(t.respLen)
		} else {
			byteSum += float64(len(st.frames[t.d.item]))
		}
	}
	bytesPerOp = byteSum / float64(len(timA))

	type check struct {
		reqTiming
		inA bool // phase-A samples make up the PSNR figure
	}
	var sampled []check
	for i, t := range append(append([]reqTiming(nil), timA...), timB...) {
		if t.ok && t.d.op%sampleEvery == 0 {
			sampled = append(sampled, check{t, i < len(timA)})
		}
	}
	var psnrSum float64
	var psnrN int
	if w.ingest {
		for _, t := range sampled {
			body := stamped(nil, st.bodies[t.d.item], t.d.op)
			want, err := earthplus.EncodeFrame(ctx, samplesImage(body, w.size, w.size, 4),
				earthplus.EncodeOptions{BPP: 1, Tiled: t.d.class == encodeTiled})
			if err != nil {
				return 0, 0, 0, fmt.Errorf("%s: reference encode: %w", w.name, err)
			}
			if !bytes.Equal(want, t.sample) {
				mismatches++
				continue
			}
			if t.inA {
				img, err := earthplus.DecodeFrame(ctx, want, nil, 0)
				if err != nil {
					return 0, 0, 0, fmt.Errorf("%s: reference decode: %w", w.name, err)
				}
				psnrSum += psnrSamples(body, imageSamples(img))
				psnrN++
			}
		}
		return ratio(psnrSum, float64(psnrN)), bytesPerOp, mismatches, nil
	}

	// Decode: one expected response per (frame, tile) key, computed a
	// frame at a time against the re-synthesised source image.
	sort.SliceStable(sampled, func(i, j int) bool { return sampled[i].d.item < sampled[j].d.item })
	type expect struct {
		sum  [32]byte
		psnr float64
	}
	var cache map[int]expect // tile -> expected, -1 = full frame
	var src []byte
	frame := -1
	for _, t := range sampled {
		if t.d.item != frame {
			frame, src, cache = t.d.item, st.capture(t.d.item), map[int]expect{}
		}
		tile := -1
		if t.d.class == decodeRegion {
			tile = t.d.tile
		}
		e, ok := cache[tile]
		if !ok {
			var img *earthplus.Image
			ref := src
			if tile < 0 {
				img, err = earthplus.DecodeFrame(ctx, st.frames[frame], nil, 0)
			} else {
				x, y := st.tileXY(tile)
				img, err = earthplus.DecodeFrameRegion(ctx, st.frames[frame], nil, x, y, regionSide, regionSide)
				ref = cropSamples(src, w.size, w.size, 4, x, y, regionSide, regionSide)
			}
			if err != nil {
				return 0, 0, 0, fmt.Errorf("%s: reference decode: %w", w.name, err)
			}
			got := imageSamples(img)
			e = expect{sum: sha256.Sum256(got), psnr: psnrSamples(ref, got)}
			cache[tile] = e
		}
		if e.sum != t.sampleSum {
			mismatches++
			continue
		}
		if t.inA {
			psnrSum += e.psnr
			psnrN++
		}
	}
	return ratio(psnrSum, float64(psnrN)), bytesPerOp, mismatches, nil
}

// traceMetrics builds the spans of the traced phase-A requests — the
// request from its due time, the client's wait for a connection and the
// server's handler — and the serving layers' per-layer metrics, then runs
// the serial codec probe on the workload's own inputs.
func (st *serveState) traceMetrics(timT []reqTiming) ([]span, map[string]float64, error) {
	codec, err := st.codecProbe()
	if err != nil {
		return nil, nil, err
	}
	tr := &tracer{epoch: timT[0].due}
	var wait, handler, transport, overhead []time.Duration
	var perClass [numClasses][]time.Duration
	seen := map[[2]int]bool{}
	for _, t := range timT {
		key := [2]int{t.d.item, -1}
		if t.d.class == decodeRegion {
			key[1] = t.d.tile
		}
		first := !seen[key] || st.w.ingest
		seen[key] = true
		if !t.ok {
			continue
		}
		id := tr.newID()
		tr.add("loadgen.request", t.d.op, id, 0, t.due, t.done)
		var cw, hd time.Duration
		if !t.gotConn.IsZero() {
			cw = t.gotConn.Sub(t.sent)
			tr.add("client.conn_wait", t.d.op, tr.newID(), id, t.sent, t.gotConn)
			wait = append(wait, cw)
		}
		if h, ok := st.hp.get(t.d.op); ok {
			hd = h[1].Sub(h[0])
			tr.add("serve.handler", t.d.op, tr.newID(), id, h[0], h[1])
			handler = append(handler, hd)
			perClass[t.d.class] = append(perClass[t.d.class], hd)
			if first {
				overhead = append(overhead, hd-time.Duration(codec[t.d.class]*float64(time.Millisecond)))
			}
		}
		transport = append(transport, t.done.Sub(t.sent)-cw-hd)
	}
	spans := tr.snapshot()
	m := map[string]float64{
		"loadgen.request.self_s":  selfSeconds(spans)["loadgen.request"],
		"client.conn_wait_p50_ms": percentileMs(wait, 0.50),
		"client.conn_wait_p95_ms": percentileMs(wait, 0.95),
		"http.transport_p50_ms":   percentileMs(transport, 0.50),
		"serve.handler_p50_ms":    percentileMs(handler, 0.50),
		"serve.handler_p95_ms":    percentileMs(handler, 0.95),
		"serve.overhead_p50_ms":   percentileMs(overhead, 0.50),
	}
	for c := 0; c < numClasses; c++ {
		m["serve.handler."+className[c]+"_p50_ms"] = percentileMs(perClass[c], 0.50)
	}
	m["codec.encode_mono_p50_ms"] = codec[encodeMono]
	m["codec.encode_tiled_p50_ms"] = codec[encodeTiled]
	m["codec.decode_full_p50_ms"] = codec[decodeFull]
	m["codec.decode_region64_p50_ms"] = codec[decodeRegion]
	return spans, m, nil
}

// codecProbe times pkg/earthplus serially on the workload's own inputs,
// one call at a time, for each request class (median of probeRuns calls,
// in milliseconds).
func (st *serveState) codecProbe() ([numClasses]float64, error) {
	const probeRuns = 8
	ctx := context.Background()
	var times [numClasses][]time.Duration
	timed := func(class int, f func() error) error {
		t0 := time.Now()
		err := f()
		times[class] = append(times[class], time.Since(t0))
		return err
	}
	tiles := (st.w.size / regionSide) * (st.w.size / regionSide)
	for i := 0; i < probeRuns; i++ {
		var img *earthplus.Image
		var frame earthplus.Codestream
		var err error
		if st.w.ingest {
			img = samplesImage(st.bodies[i%len(st.bodies)], st.w.size, st.w.size, 4)
		} else {
			frame = st.frames[i%len(st.frames)]
			if img, err = earthplus.DecodeFrame(ctx, frame, nil, 0); err != nil {
				return times2ms(times), err
			}
		}
		for _, c := range []int{encodeMono, encodeTiled} {
			err = timed(c, func() error {
				f, err := earthplus.EncodeFrame(ctx, img, earthplus.EncodeOptions{BPP: 1, Tiled: c == encodeTiled})
				if st.w.ingest && (c == encodeTiled) == frameTiled(i) {
					frame = f
				}
				return err
			})
			if err != nil {
				return times2ms(times), err
			}
		}
		if err = timed(decodeFull, func() error { _, err := earthplus.DecodeFrame(ctx, frame, nil, 0); return err }); err != nil {
			return times2ms(times), err
		}
		x, y := st.tileXY(i % tiles)
		if err = timed(decodeRegion, func() error {
			_, err := earthplus.DecodeFrameRegion(ctx, frame, nil, x, y, regionSide, regionSide)
			return err
		}); err != nil {
			return times2ms(times), err
		}
	}
	return times2ms(times), nil
}

func times2ms(times [numClasses][]time.Duration) [numClasses]float64 {
	var out [numClasses]float64
	for c := range times {
		out[c] = percentileMs(times[c], 0.50)
	}
	return out
}

// imageSamples packs an image as little-endian uint16 band-major samples,
// the wire format of /v1/encode bodies and /v1/decode responses.
func imageSamples(img *earthplus.Image) []byte {
	out := make([]byte, 0, img.Width*img.Height*img.NumBands()*2)
	for b := 0; b < img.NumBands(); b++ {
		for _, v := range img.Plane(b) {
			out = binary.LittleEndian.AppendUint16(out, earthplus.Quantize16(v))
		}
	}
	return out
}

// samplesImage unpacks wire samples the way the server does.
func samplesImage(s []byte, w, h, bands int) *earthplus.Image {
	info := make([]earthplus.BandInfo, bands)
	for b := range info {
		info[b].Name = "band" + strconv.Itoa(b)
	}
	img := earthplus.NewImage(w, h, info)
	for b := 0; b < bands; b++ {
		plane, off := img.Plane(b), b*w*h*2
		for i := range plane {
			plane[i] = float32(binary.LittleEndian.Uint16(s[off+2*i:])) / 65535
		}
	}
	return img
}

// cropSamples cuts the rectangle [x,x+cw) x [y,y+ch) out of band-major
// samples of a w x h image.
func cropSamples(s []byte, w, h, bands, x, y, cw, ch int) []byte {
	out := make([]byte, 0, cw*ch*bands*2)
	for b := 0; b < bands; b++ {
		for r := y; r < y+ch; r++ {
			off := (b*w*h + r*w + x) * 2
			out = append(out, s[off:off+cw*2]...)
		}
	}
	return out
}

// psnrSamples is the PSNR in dB of sample set b against reference a, both
// 16-bit, with peak 1 after scaling to [0,1].
func psnrSamples(a, b []byte) float64 {
	var sum float64
	n := len(a) / 2
	for i := 0; i < n; i++ {
		d := (float64(binary.LittleEndian.Uint16(a[2*i:])) - float64(binary.LittleEndian.Uint16(b[2*i:]))) / 65535
		sum += d * d
	}
	if sum == 0 {
		return math.Inf(1)
	}
	return 10 * math.Log10(float64(n)/sum)
}

// parallel runs f(0..n-1) on nproc goroutines and waits for them.
func parallel(n int, f func(int)) { parallelN(n, runtime.NumCPU(), f) }

func parallelN(n, workers int, f func(int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	workers = max(1, min(workers, n))
	wg.Add(workers)
	for k := 0; k < workers; k++ {
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				f(i)
			}
		}()
	}
	wg.Wait()
}
