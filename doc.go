// Package earthplus is a from-scratch Go reproduction of "Earth+: On-Board
// Satellite Imagery Compression Leveraging Historical Earth Observations"
// (ASPLOS 2025). The root package only anchors the module; the supported
// entry point is the public, versioned API in pkg/earthplus (plus the
// HTTP serving layer in pkg/earthplus/serve), which every executable in
// cmd/ and every runnable example in examples/ goes through. The system
// itself lives under internal/.
//
// # Layout
//
//   - pkg/earthplus — the public API: the system registry (Earth+ and the
//     baselines constructed by name from one SystemSpec), the framed
//     multi-band container codestream with streaming Encoder/Decoder, and
//     the typed error taxonomy. pkg/earthplus/serve exposes the codec
//     over HTTP (/v1/encode, /v1/decode, /v1/info, /metrics, /healthz)
//     as a production serving tier: a persistent content-addressed
//     result cache, per-client token-bucket rate limiting (429 with an
//     escalating Retry-After), request coalescing and bounded workers,
//     with every error path answering taxonomy JSON. The in-process
//     load harness behind earthplus-bench -only servebench
//     (internal/servebench) tracks its latency and throughput in
//     BENCH_serve.json.
//   - internal/container, internal/registry, internal/eperr — the frame
//     format, the registry and the error taxonomy underneath the API.
//   - internal/codec — the layered wavelet codec every encode funnels
//     through: CDF 9/7 transform, dead-zone quantisation, embedded
//     bit-plane coding with an adaptive binary arithmetic coder, quality
//     layers, exact byte budgets, ROI mosaics, a lossless 5/3 mode, and
//     a tiled (EPT1) profile — fixed 64x64 tiles coded independently
//     with an RLGR fast path, a seekable tile index and region decode.
//   - internal/wavelet, internal/arith — the transform and entropy-coding
//     primitives underneath it.
//   - internal/sat, internal/station, internal/core — the on-board
//     pipeline, the ground segment, and Earth+ itself wired from both.
//   - internal/baseline — the Kodan and SatRoI comparison systems.
//   - internal/sim, internal/scene, internal/orbit, internal/experiments —
//     the constellation simulator, synthetic Earth scenes and every
//     regenerated table/figure of the paper's evaluation.
//   - internal/constellation — the fleet-scale ground segment: contended
//     ground stations, the cross-satellite contact scheduler and the
//     event-driven time-to-usable-image workload.
//   - internal/cli — the flag plumbing shared by all cmds.
//
// # Simulation engine
//
// internal/sim is a sharded parallel engine with one walk at every worker
// count: each simulated day is split by location onto the shared bounded
// worker pool (internal/par; sim.Env.Parallelism, the -simworkers flag;
// 0 = GOMAXPROCS, 1 = one worker, which runs the locations inline in
// order), each location's visit sequence stays ordered, records are
// emitted in location order, and day-end uplink packing runs on a
// sequential barrier. A run's sim.WriteTrace bytes are identical at any
// worker count; the determinism matrix in internal/sim pins this under
// -race, and its golden digests pin the one-worker traces themselves.
// Scene synthesis draws capture buffers from pools (scene.ReleaseCapture
// recycles them), and sim.RunStream plus sim.Accumulator aggregate
// records without retaining them.
//
// # Storage model
//
// On-board reference caches are capacity-bounded (sat.RefCache): each
// satellite's store honours a byte budget (core.Config.StorageBytes,
// registry param "storage_bytes", flag -storage; zero = Table 1's 360 GB
// default, negative = unlimited) with pluggable eviction policies
// ("lru" = least-recently-visited, "schedule" = farthest next planned
// visit; StrParams key "evict_policy", flag -evictpolicy). A capture
// whose reference was evicted is a first-class miss (Record.RefMiss) and
// falls back to reference-free encoding; every eviction invalidates the
// ground's mirror (station.Ground.InvalidateMirror) so the next uplink
// cycle re-seeds the reference in full — and PackUplink drains those
// re-seeds FIRST, before routine delta freshness updates, so a scarce
// uplink cannot starve the locations that just went to miss. Eviction
// decisions are pure functions of the visit schedule and run only on the
// engine's serial phases, so storage-bounded runs remain byte-identical
// at any worker count.
//
// With ref_compression=on (flag -refcompress, default off) the store
// holds each reference as its encoded codestream at the uplink's
// reference rate instead of raw 16-bit planes: footprints are the actual
// encoded bytes (~2.7x more locations per budget), a Visit hands out the
// stored frame and the pipeline decodes it only for a capture that
// survives the cloud drop (core.System.DecodeStats counts those decodes;
// the repo benchmark's traced sim-constrained run reports their count and
// wall-clock as sat.ref_decodes and sat.ref_decode_busy_s), and the store
// installs the frame the ground built (sat.RefCache.Install).
// One sat.Storage value, built once in core and handed to the store and
// the ground (station.Config.Storage), decides what every store keeps, so
// the ground's mirrors hold what the stores decode and delta uplinks stay
// byte-coherent. The storage sweep (earthplus-bench -only storagesweep)
// measures compression ratio, uplink use and reference residency against
// the budget for the raw and compressed Earth+ stores at equal budgets,
// both baselines, and both eviction policies at a fixed budget.
//
// # Constellation ground segment
//
// With the constellation model on (registry param "stations", flag
// -stations, default off and byte-identical to the flat budget) the
// fleet's uplink is served by N contended ground stations, each handling
// at most one satellite per contact window
// (constellation.DefaultContactsPerStation windows per station per day),
// and the flat per-day uplink budget becomes a per-contact byte meter
// (param "contact_budget", flag -contactbudget; zero derives
// flat/contacts-per-station, negative = unlimited). A deterministic
// cross-satellite scheduler (constellation.Scheduler) books the windows on
// the engine's sequential day-end barrier, lifting PackUplink's
// three-class priority — re-seeds first, then delta freshness updates,
// then demoted retransmits — from within one satellite to across the
// fleet; satellites with pending work that win no window are counted as
// contention stalls. Booked contacts land in Result.Contacts, dump as
// sorted per-station trace lines (sim.WriteTrace), and aggregate into
// constellation.Stats. The companion event workload
// (constellation.EventTracker, a sim.Observer) watches every scene change
// event and records time-to-usable-image: days from event onset until a
// downlinked frame scores the usable PSNR bar over the event's tiles. The
// constellation sweep (earthplus-bench -only constsweep) measures
// quality, stalls, re-seed backlog and TTUI over fleet sizes x station
// counts, and fleet-scale determinism is pinned by the internal/sim tests
// (16 satellites, 2 stations, every worker count identical down to the
// contact log).
//
// # Performance
//
// The codec hot path is engineered for the paper's on-board compute
// envelope: steady-state encodes and decodes allocate only the returned
// buffers (scratch planes, significance maps, probability contexts and
// coder buffers are pooled), the bit-plane scan skips all-insignificant
// rows in bulk, sign bits travel as batched bypass bits, and multi-band
// images are coded by a bounded worker pool (codec.Options.Parallelism,
// package default codec.Parallelism, earthplus-bench/-sim flag -parallel).
// The tiled (EPT1) profile (codec.Options.Tiled, flag -tiledstore,
// registry param "tiled_store") trades a modest rate-distortion cost for
// a per-tile RLGR fast path — single-thread encode beats the monolithic
// coder by >2.5x at 256x256 — plus region decode whose latency tracks
// the tiles touched rather than the plane, tile-granular splices on the
// uplink and a per-tile worker pool. See README.md for the perf knobs
// and how to run the microbenchmarks, and cmd/earthplus-bench -only
// codecbench for the tracked BENCH_codec.json snapshot.
//
// The determinism, pooling and error-taxonomy invariants above are
// machine-enforced: tools/ houses a custom go/analysis suite
// (earthplus-lint: maporder, detsource, pooledescape, eperrboundary)
// that runs in CI and inside go test via internal/lintcheck. See the
// "Static analysis" section of README.md.
package earthplus

// Version identifies this reproduction's release line. This is the one
// place it is bumped; pkg/earthplus.Version re-exports it for API
// consumers.
const Version = "1.10.0"
