package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// run is one invocation's settings and metric values.
type run struct {
	seed    uint64
	seconds float64
	vals    map[string]float64
}

// runSet maps a workload to its runs, in file order.
type runSet struct {
	order []string
	runs  map[string][]run
}

// readRunSet reads the JSON lines of benchmark invocations: each result
// line belongs to the metadata line before it.
func readRunSet(path string) (*runSet, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	rs := &runSet{runs: map[string][]run{}}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	var current *meta
	for n := 1; sc.Scan(); n++ {
		var line struct {
			meta
			Metrics map[string]metricValue `json:"metrics"`
		}
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, n, err)
		}
		switch {
		case line.Workload != "":
			current = &line.meta
		case line.Metrics != nil && current != nil:
			if _, seen := rs.runs[current.Workload]; !seen {
				rs.order = append(rs.order, current.Workload)
			}
			r := run{seed: current.Seed, seconds: current.Seconds, vals: map[string]float64{}}
			for k, v := range line.Metrics {
				r.vals[k] = v.Value
			}
			rs.runs[current.Workload] = append(rs.runs[current.Workload], r)
			current = nil
		}
	}
	return rs, sc.Err()
}

// quartiles returns Q1, the median and Q3 of xs the way Python's
// statistics.quantiles(xs, n=4) does (the "exclusive" method).
func quartiles(xs []float64) (q1, med, q3 float64) {
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	n := len(d)
	if n == 1 {
		return d[0], d[0], d[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		return (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}

// verdict applies the comparison rule to one metric of one workload: a
// (parent) and b (change) are paired runs with the same seeds. A
// deterministic metric is worse, and a regression, when any pair loses,
// and better when none loses and one wins. Otherwise the change is better
// or worse only when it wins (or loses) at least 9 of every 10 pairs and
// its median moves by more than the parent's interquartile range; an
// end-to-end metric is then checked against its bound, and reported
// unresolved when the parent's own spread is wider than the bound.
func verdict(def metricDef, a, b []float64) (string, bool) {
	n := min(len(a), len(b))
	q1, medA, q3 := quartiles(a[:n])
	_, medB, _ := quartiles(b[:n])
	sign := 1.0
	if def.Better == "lower" {
		sign = -1
	}
	wins, losses := 0, 0
	for i := 0; i < n; i++ {
		switch d := sign * (b[i] - a[i]); {
		case d > 0:
			wins++
		case d < 0:
			losses++
		}
	}
	gap := sign * (medB - medA)
	iqr := q3 - q1
	bound := def.bound() * math.Abs(medA)
	switch {
	case wins == 0 && losses == 0:
		return "identical", false
	case deterministic[def.Name] && losses > 0:
		return fmt.Sprintf("worse in %d of %d same-seed pairs", losses, n), true
	case deterministic[def.Name]:
		return fmt.Sprintf("better in %d of %d same-seed pairs", wins, n), false
	case n < 10:
		return fmt.Sprintf("unresolved: %d pairs, 10 needed", n), false
	case 10*wins >= 9*n && gap > iqr:
		return "better", false
	case 10*losses >= 9*n && -gap > iqr:
		return "worse", bound > 0 && -gap > bound
	case bound == 0:
		return "unresolved", false
	case -gap > bound:
		return fmt.Sprintf("worse than its bound %.0f%%", 100*def.bound()), true
	case iqr > bound:
		return "unresolved: spread wider than its bound", false
	}
	return "within its bound", false
}

// compareFiles prints the rule's verdict for every workload and metric
// the two run sets share, and reports whether any end-to-end metric got
// worse than its bound.
func compareFiles(w io.Writer, pathA, pathB string) (bool, error) {
	a, err := readRunSet(pathA)
	if err != nil {
		return false, err
	}
	b, err := readRunSet(pathB)
	if err != nil {
		return false, err
	}
	regressed := false
	fmt.Fprintf(w, "%-16s %-36s %5s %14s %14s %12s  %s\n", "workload", "metric", "pairs", "median A", "median B", "IQR A", "verdict")
	for _, wl := range a.order {
		ra, rb := a.runs[wl], b.runs[wl]
		if len(rb) == 0 {
			continue
		}
		for i := 0; i < min(len(ra), len(rb)); i++ {
			if ra[i].seed != rb[i].seed || ra[i].seconds != rb[i].seconds {
				return false, fmt.Errorf("%s run %d: seed %d, %v s in %s but seed %d, %v s in %s; pair runs with the same settings",
					wl, i+1, ra[i].seed, ra[i].seconds, pathA, rb[i].seed, rb[i].seconds, pathB)
			}
		}
		for _, def := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
			var va, vb []float64
			for i := 0; i < min(len(ra), len(rb)); i++ {
				x, okA := ra[i].vals[def.Name]
				y, okB := rb[i].vals[def.Name]
				if okA && okB {
					va, vb = append(va, x), append(vb, y)
				}
			}
			if len(va) == 0 {
				continue
			}
			v, bad := verdict(def, va, vb)
			regressed = regressed || bad
			q1, medA, q3 := quartiles(va)
			_, medB, _ := quartiles(vb)
			fmt.Fprintf(w, "%-16s %-36s %5d %14.4f %14.4f %12.4f  %s\n", wl, def.Name, len(va), medA, medB, q3-q1, v)
		}
	}
	return regressed, nil
}
