package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"regexp"
	"sort"
	"time"
)

// metricDef is one metric of BENCHMARK.json. Bound is the share of the
// parent's median by which an end-to-end metric may worsen before a change
// counts as a regression; per-layer metrics have none.
type metricDef struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"` // "higher" | "lower"
	Bound  *float64 `json:"bound,omitempty"`
}

// The catalog: the metrics every workload prints with tracing off
// (endToEnd) and traced (perLayer), as BENCHMARK.json lists them.
// loadCatalog fills both at start-up. A layer that a workload does not run
// reports 0.
var endToEnd, perLayer []metricDef

// deterministic names the end-to-end metrics that are a function of the
// seed and --seconds alone. Two runs with the same seed must read them
// identically, so the comparison counts any same-seed loss on them as a
// regression. BENCHMARK.json's schema has no field for this.
var deterministic = map[string]bool{"mean_psnr_db": true, "compressed_bytes_per_op": true}

// maxBound is the largest regression bound BENCHMARK.json may give.
const maxBound = 0.25

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// loadCatalog reads the metric catalog from BENCHMARK.json at path and
// checks it against the workloads this binary runs.
func loadCatalog(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("catalog: %w", err)
	}
	var b struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		return fmt.Errorf("catalog %s: %w", path, err)
	}
	if len(b.Workloads) != len(workloads) {
		return fmt.Errorf("catalog %s: %d workloads, the binary runs %d", path, len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i].workloadName() {
			return fmt.Errorf("catalog %s: workload %d is %q, the binary's is %q", path, i, w.Name, workloads[i].workloadName())
		}
	}
	seen := map[string]bool{}
	for _, m := range append(append([]metricDef(nil), b.EndToEnd...), b.PerLayer...) {
		if !metricName.MatchString(m.Name) || seen[m.Name] || (m.Better != "higher" && m.Better != "lower") {
			return fmt.Errorf("catalog %s: bad or repeated metric %+v", path, m)
		}
		seen[m.Name] = true
	}
	for _, m := range b.EndToEnd {
		if m.Bound == nil || *m.Bound <= 0 || *m.Bound > maxBound {
			return fmt.Errorf("catalog %s: end-to-end metric %s needs a bound in (0, %v]", path, m.Name, maxBound)
		}
	}
	for _, m := range b.PerLayer {
		if m.Bound != nil {
			return fmt.Errorf("catalog %s: per-layer metric %s has a bound", path, m.Name)
		}
	}
	for name := range deterministic {
		if !seen[name] {
			return fmt.Errorf("catalog %s: no metric %s", path, name)
		}
	}
	endToEnd, perLayer = b.EndToEnd, b.PerLayer
	return nil
}

// bound is def's regression bound, 0 for a per-layer metric.
func (def metricDef) bound() float64 {
	if def.Bound == nil {
		return 0
	}
	return *def.Bound
}

// metricValue is one printed metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line every invocation prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// fill builds the metrics map for defs from raw values; a metric the
// workload did not produce reads 0, and NaN or Inf (an empty ratio) too.
func fill(defs []metricDef, raw map[string]float64) map[string]metricValue {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v := raw[d.Name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		out[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	return out
}

// percentileMs is the nearest-rank p-quantile of ds in milliseconds (0 for
// an empty sample). ds is sorted in place.
func percentileMs(ds []time.Duration, p float64) float64 {
	if len(ds) == 0 {
		return 0
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	i := int(math.Ceil(p*float64(len(ds)))) - 1
	i = max(0, min(i, len(ds)-1))
	return ms(ds[i])
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func sumSeconds(ds []time.Duration) float64 {
	var t time.Duration
	for _, d := range ds {
		t += d
	}
	return t.Seconds()
}

// median of xs (0 when empty); xs is sorted in place.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
