package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"testing"
)

// tiny shrinks a workload to about a second of work.
func tiny(t *testing.T, w workload) workload {
	t.Helper()
	switch w := w.(type) {
	case simWorkload:
		w.days, w.locations, w.setups = 2, 2, 2
		return w
	case serveWorkload:
		w.size, w.distinct, w.refRate, w.setups = 128, 6, 20, 1
		return w
	}
	t.Fatalf("unknown workload type %T", w)
	return nil
}

const tinySeconds = 0.5

// TestMain loads the repository's BENCHMARK.json, as the binary does at
// start-up; a catalog that fails its checks fails every test.
func TestMain(m *testing.M) {
	if err := loadCatalog("../BENCHMARK.json"); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	os.Exit(m.Run())
}

// TestLoadCatalogRejects checks that the catalog's checks catch a bound
// over the limit, a bad metric name and a workload the binary lacks. A
// rejected catalog leaves the loaded one in place.
func TestLoadCatalogRejects(t *testing.T) {
	good, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct{ old, new string }{
		{`"bound": `, `"bound": 9`},
		{`"name": "setup_s"`, `"name": "setup s"`},
		{`"name": "serve-read"`, `"name": "serve-write"`},
	} {
		bad := strings.Replace(string(good), c.old, c.new, 1)
		if bad == string(good) {
			t.Fatalf("BENCHMARK.json has no %s", c.old)
		}
		path := t.TempDir() + "/BENCHMARK.json"
		if err := os.WriteFile(path, []byte(bad), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := loadCatalog(path); err == nil {
			t.Errorf("catalog with %s accepted", c.new)
		}
	}
}

// runLines runs a workload through runOne and returns its printed meta
// and result lines.
func runLines(t *testing.T, w workload, trace bool, spans string) (meta, result, int) {
	t.Helper()
	var stdout bytes.Buffer
	code := runOne(w, runOpts{seed: 3, seconds: tinySeconds, trace: trace}, spans, &stdout, io.Discard)
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("%s printed %d lines, want 2:\n%s", w.workloadName(), len(lines), stdout.String())
	}
	var m meta
	var r result
	if err := json.Unmarshal([]byte(lines[0]), &m); err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(strings.NewReader(lines[1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&r); err != nil {
		t.Fatal(err)
	}
	return m, r, code
}

// TestWorkloadsPrintEveryMetric runs every workload at a tiny scale,
// untraced and traced, and checks that each prints exactly its metric set
// with units, passes its output checks, and that traced spans are well
// formed.
func TestWorkloadsPrintEveryMetric(t *testing.T) {
	for _, w := range workloads {
		w := tiny(t, w)
		t.Run(w.workloadName(), func(t *testing.T) {
			for _, trace := range []bool{false, true} {
				spans := ""
				if trace {
					spans = t.TempDir() + "/spans.jsonl"
				}
				m, r, code := runLines(t, w, trace, spans)
				if code != 0 || !r.Correct || r.Failed != 0 || r.Attempted < 1 {
					t.Fatalf("trace=%v: exit %d, result %+v, problems %v", trace, code, r, m.Problems)
				}
				defs := endToEnd
				if trace {
					defs = perLayer
				}
				if len(r.Metrics) != len(defs) {
					t.Errorf("trace=%v: %d metrics, want %d", trace, len(r.Metrics), len(defs))
				}
				for _, d := range defs {
					v, ok := r.Metrics[d.Name]
					if !ok || v.Unit != d.Unit {
						t.Errorf("trace=%v: metric %s = %+v, want unit %s", trace, d.Name, v, d.Unit)
					}
					if !trace && v.Value <= 0 {
						t.Errorf("end-to-end metric %s = %v, want > 0", d.Name, v.Value)
					}
				}
				if m.Workload != w.workloadName() || m.GoVersion == "" || m.NProc < 1 || m.GOMAXPROCS < 1 {
					t.Errorf("metadata %+v", m)
				}
				if trace {
					checkSpans(t, spans)
					for _, name := range layerMetrics(w) {
						if r.Metrics[name].Value <= 0 {
							t.Errorf("per-layer metric %s = %v, want > 0", name, r.Metrics[name].Value)
						}
					}
				}
			}
		})
	}
}

// layerMetrics names per-layer metrics that a traced run of w must
// measure, one or more per layer boundary the benchmark wraps.
func layerMetrics(w workload) []string {
	if _, ok := w.(simWorkload); ok {
		return []string{"core.on_capture.busy_s", "core.on_day_end.busy_s", "core.bootstrap.busy_s",
			"cloud.busy_s", "codec.encode_busy_s", "sim.day.self_s", "go.gc_cycles"}
	}
	return []string{"serve.handler_p50_ms", "client.conn_wait_p50_ms", "http.transport_p50_ms",
		"codec.encode_mono_p50_ms", "codec.decode_region64_p50_ms", "loadgen.request.self_s"}
}

// checkSpans reads a span file and checks that IDs are unique, every
// parent resolves, and no span ends before it starts.
func checkSpans(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) == 0 {
		t.Fatal("no spans recorded")
	}
	var spans []span
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		var s span
		if err := json.Unmarshal([]byte(line), &s); err != nil {
			t.Fatal(err)
		}
		spans = append(spans, s)
	}
	ids := map[int64]bool{}
	for _, s := range spans {
		if ids[s.ID] || s.ID == 0 {
			t.Errorf("span id %d repeated or zero", s.ID)
		}
		ids[s.ID] = true
	}
	for _, s := range spans {
		if s.Parent != 0 && !ids[s.Parent] {
			t.Errorf("span %+v: parent does not resolve", s)
		}
		if s.End < s.Start || s.Name == "" {
			t.Errorf("span %+v: ends before it starts or has no name", s)
		}
	}
}

// corrupt flips the last byte of every response body.
type corrupt struct{ http.ResponseWriter }

func (c corrupt) Write(b []byte) (int, error) {
	if len(b) > 0 {
		b = append([]byte(nil), b...)
		b[len(b)-1] ^= 0xff
	}
	return c.ResponseWriter.Write(b)
}

// TestCorruptResponsesFail checks that the output checks catch a server
// returning damaged bytes: the run counts failures and is not correct.
func TestCorruptResponsesFail(t *testing.T) {
	for _, w := range workloads {
		sw, ok := tiny(t, w).(serveWorkload)
		if !ok {
			continue
		}
		sw.wrap = func(h http.Handler) http.Handler {
			return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if strings.HasPrefix(r.URL.Path, "/v1/") {
					w = corrupt{w}
				}
				h.ServeHTTP(w, r)
			})
		}
		t.Run(sw.name, func(t *testing.T) {
			_, r, code := runLines(t, sw, false, "")
			if r.Correct || code == 0 || r.Failed == 0 {
				t.Errorf("corrupted responses passed: exit %d, %+v", code, r)
			}
		})
	}
}

// TestSimWrapperForwardsContacts checks that the sim.System wrapper keeps
// the contact log RunStream attaches under the constellation model, and
// that the episode's uplink is what the contacts carried.
func TestSimWrapperForwardsContacts(t *testing.T) {
	w := tiny(t, simWorkload{name: "sim-constrained", constrained: true}).(simWorkload)
	var tot simTotals
	w.runEpisode(1, 0, nil, nil, &tot)
	if tot.failed != 0 || len(tot.problems) != 0 {
		t.Fatalf("episode failed: %v", tot.problems)
	}
	if tot.contacts == 0 || tot.upBytes == 0 {
		t.Fatalf("%d contacts carried %d uplink bytes; the check proved nothing", tot.contacts, tot.upBytes)
	}
}

// TestScaleToReference checks that times shrink and rates grow by the
// slowdown of their own stretch, and that nothing else moves.
func TestScaleToReference(t *testing.T) {
	m := map[string]float64{"latency_p50_ms": 12, "setup_s": 3, "throughput_per_s": 10, "mean_psnr_db": 30}
	raw := scaleToReference(m, map[string]float64{"latency_p50_ms": 1.5, "setup_s": 1.5, "throughput_per_s": 2})
	want := map[string]float64{"latency_p50_ms": 8, "setup_s": 2, "throughput_per_s": 20, "mean_psnr_db": 30}
	for k, v := range want {
		if m[k] != v {
			t.Errorf("%s scaled to %v, want %v", k, m[k], v)
		}
	}
	if len(raw) != 3 || raw["latency_p50_ms"] != 12 || raw["throughput_per_s"] != 10 {
		t.Errorf("raw values %v", raw)
	}

	p := newSpeedProbe(2)
	p.sample()
	mid := p.mark()
	p.sample()
	if s := p.slowdown(0, p.mark()); s <= 0 || p.slowdown(mid, mid) != 1 {
		t.Errorf("slowdown %v over two rounds, %v over none", s, p.slowdown(mid, mid))
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, med, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, med, q3)
	}
}

func TestVerdict(t *testing.T) {
	bound := 0.1
	lower := metricDef{Name: "latency_p50_ms", Better: "lower", Bound: &bound}
	exact := metricDef{Name: "mean_psnr_db", Better: "higher", Bound: &bound}
	base := []float64{10, 10.2, 9.9, 10.1, 10, 9.8, 10.3, 10, 10.1, 9.9}
	shift := func(d float64) []float64 {
		out := make([]float64, len(base))
		for i, v := range base {
			out[i] = v + d
		}
		return out
	}
	oneLower := append([]float64(nil), base...)
	oneLower[3] -= 0.01
	for _, c := range []struct {
		def       metricDef
		b         []float64
		want      string
		regressed bool
	}{
		{lower, shift(-2), "better", false},
		{lower, shift(0.5), "worse", false},
		{lower, shift(3), "worse", true},
		{lower, base, "identical", false},
		{lower, shift(-2)[:5], "unresolved: 5 pairs, 10 needed", false},
		// A deterministic metric regresses on any same-seed loss, however
		// small, and whatever its bound.
		{exact, oneLower, "worse in 1 of 10 same-seed pairs", true},
		{exact, shift(0.01)[:3], "better in 3 of 3 same-seed pairs", false},
		{exact, base, "identical", false},
	} {
		got, bad := verdict(c.def, base[:len(c.b)], c.b)
		if got != c.want || bad != c.regressed {
			t.Errorf("verdict(%s, %v) = %q %v, want %q %v", c.def.Name, c.b, got, bad, c.want, c.regressed)
		}
	}
}

// TestCompareReadsRunSets checks the run-set reader against the format
// the benchmark prints, and that it refuses to pair runs whose seeds
// differ.
func TestCompareReadsRunSets(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, seedOffset uint64, add float64) string {
		var buf bytes.Buffer
		for i := 0; i < 10; i++ {
			json.NewEncoder(&buf).Encode(meta{Workload: "w", Seed: uint64(i) + seedOffset, Seconds: 20})
			v := 10.0 + float64(i%3) + add
			json.NewEncoder(&buf).Encode(result{Metrics: map[string]metricValue{"latency_p50_ms": {Value: v, Unit: "ms"}}})
		}
		path := dir + "/" + name
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a, b, other := write("a", 1, 0), write("b", 1, 5), write("other", 2, 0)
	var out bytes.Buffer
	regressed, err := compareFiles(&out, a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !regressed || !strings.Contains(out.String(), "worse") {
		t.Errorf("a 50%% latency rise was not reported as a regression:\n%s", out.String())
	}
	if _, err := compareFiles(io.Discard, a, other); err == nil {
		t.Error("runs with different seeds were paired")
	}
}
