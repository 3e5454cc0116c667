// Command benchmark is the repository's benchmark: two end-to-end
// simulation workloads and two open-loop serving workloads, each printing
// its end-to-end metrics (or, traced, its per-layer metrics) and checking
// the outputs it measured. Run it from the repository root:
//
//	bash benchmark/run.sh --workload sim-default --seed 1 --seconds 15 --trace 0
//	bash benchmark/run.sh                    # every workload, one child process each
//	bash benchmark/run.sh --trace 1 --spans spans.jsonl
//	bash benchmark/run.sh --compare A.jsonl B.jsonl
//
// Standard output is JSON lines: per workload, a metadata line (workload,
// seed, validity, toolchain, record digest) and then the result line
// {"correct", "attempted", "failed", "metrics"}. The last line is always a
// result line. The exit status is non-zero when an output check failed.
// The metric catalog (names, units, directions and bounds) is read from
// BENCHMARK.json in the working directory. See README.md for the
// workloads, the metrics and the comparison rule.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// workload is one named input set the benchmark runs.
type workload interface {
	workloadName() string
	run(runOpts) (*outcome, error)
}

// workloads in run order. README.md and BENCHMARK.json say why each
// exists.
var workloads = []workload{
	simWorkload{name: "sim-default", days: 45, setups: 3},
	simWorkload{name: "sim-constrained", constrained: true, days: 40, setups: 3},
	serveWorkload{name: "serve-ingest", ingest: true, size: 384, distinct: 16, refRate: 30, setups: 3},
	serveWorkload{name: "serve-read", size: 384, distinct: 64, refRate: 40, setups: 3},
}

type runOpts struct {
	seed    uint64
	seconds float64
	trace   bool
	speed   *speedProbe // sampled all through the measured phase of an untraced run
}

// outcome is what a workload reports.
type outcome struct {
	attempted, failed int
	problems          []string // failed output checks
	invalid           []string // reasons the run does not measure what it should
	digest            string   // of the deterministic outputs, where there are any
	endToEnd          map[string]float64
	slowdown          map[string]float64 // per end-to-end timing: the host's slowdown while it was measured
	perLayer          map[string]float64
	spans             []span
	detail            map[string]any
}

// meta is the line printed before each result.
type meta struct {
	Workload   string             `json:"workload"`
	Seed       uint64             `json:"seed"`
	Seconds    float64            `json:"seconds"`
	Trace      bool               `json:"trace"`
	Valid      bool               `json:"valid"`
	Invalid    []string           `json:"invalid_reasons,omitempty"`
	Problems   []string           `json:"problems,omitempty"`
	GoVersion  string             `json:"go_version"`
	GOMAXPROCS int                `json:"gomaxprocs"`
	NProc      int                `json:"nproc"`
	Revision   string             `json:"revision,omitempty"`
	Digest     string             `json:"digest,omitempty"`
	Raw        map[string]float64 `json:"raw,omitempty"`           // end-to-end timings before scaling
	Slowdown   map[string]float64 `json:"host_slowdown,omitempty"` // what they were scaled by
	WallS      float64            `json:"wall_s"`
	SelfS      map[string]float64 `json:"self_s,omitempty"`
	Detail     map[string]any     `json:"detail,omitempty"`
}

func main() {
	name := flag.String("workload", "all", "workload to run (sim-default, sim-constrained, serve-ingest, serve-read, all)")
	seed := flag.Uint64("seed", 0, "workload seed; 0 reproduces the scene presets")
	seconds := flag.Float64("seconds", 15, "measured seconds per run on a 2-core host")
	trace := flag.Int("trace", 0, "1 runs traced and prints the per-layer metrics")
	spansPath := flag.String("spans", "", "with -trace 1, write the spans to this file as JSON lines")
	compare := flag.Bool("compare", false, "compare two run sets: -compare A.jsonl B.jsonl")
	flag.Parse()

	if err := loadCatalog("BENCHMARK.json"); err != nil {
		fail("%v (run from the repository root)", err)
	}
	if *compare {
		if flag.NArg() != 2 {
			fail("-compare takes two files")
		}
		regressed, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fail("%v", err)
		}
		if regressed {
			os.Exit(1)
		}
		return
	}
	if *trace != 0 && *trace != 1 {
		fail("-trace must be 0 or 1")
	}
	if *seconds <= 0 {
		fail("-seconds must be positive")
	}
	o := runOpts{seed: *seed, seconds: *seconds, trace: *trace == 1}
	if *name == "all" {
		os.Exit(runAll(o, *spansPath))
	}
	for _, w := range workloads {
		if w.workloadName() == *name {
			os.Exit(runOne(w, o, *spansPath, os.Stdout, os.Stderr))
		}
	}
	fail("unknown workload %q", *name)
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
	os.Exit(2)
}

// runOne runs a workload in this process, prints its two lines to stdout
// and a readable summary to stderr, and returns the exit status.
func runOne(w workload, o runOpts, spansPath string, stdout, stderr io.Writer) int {
	t0 := time.Now()
	o.speed = newSpeedProbe(runtime.NumCPU())
	out, err := w.run(o)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %s: %v\n", w.workloadName(), err)
		return 1
	}
	m := meta{
		Workload: w.workloadName(), Seed: o.seed, Seconds: o.seconds, Trace: o.trace,
		Invalid: out.invalid, Problems: out.problems,
		GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), NProc: runtime.NumCPU(),
		Revision: revision(), Digest: out.digest, WallS: time.Since(t0).Seconds(), Detail: out.detail,
	}
	if m.GOMAXPROCS < 2 {
		m.Invalid = append(m.Invalid, "GOMAXPROCS < 2: parallel layers cannot overlap")
	}
	m.Valid = len(m.Invalid) == 0
	res := result{Correct: len(out.problems) == 0, Attempted: out.attempted, Failed: out.failed}
	if o.trace {
		m.SelfS = selfSeconds(out.spans)
		res.Metrics = fill(perLayer, out.perLayer)
		if spansPath != "" {
			if err := writeSpans(spansPath, out.spans); err != nil {
				fmt.Fprintf(stderr, "benchmark: %v\n", err)
				return 1
			}
		}
	} else {
		out.endToEnd["peak_rss_mb"] = peakRSSMB()
		m.Raw, m.Slowdown = scaleToReference(out.endToEnd, out.slowdown), out.slowdown
		res.Metrics = fill(endToEnd, out.endToEnd)
	}
	summarize(stderr, m, res)
	enc := json.NewEncoder(stdout)
	if err := enc.Encode(m); err != nil {
		return 1
	}
	if err := enc.Encode(res); err != nil {
		return 1
	}
	if !res.Correct {
		return 1
	}
	return 0
}

// runAll runs every workload in its own child process, so each process's
// peak RSS and GC state belong to one workload, and prints their lines and
// then one combined result whose metric names carry the workload.
func runAll(o runOpts, spansPath string) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		return 1
	}
	total := result{Correct: true, Metrics: map[string]metricValue{}}
	status := 0
	for _, w := range workloads {
		name := w.workloadName()
		args := []string{"-workload", name, "-seed", strconv.FormatUint(o.seed, 10),
			"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64), "-trace", "0"}
		if o.trace {
			args[len(args)-1] = "1"
			if spansPath != "" {
				args = append(args, "-spans", strings.TrimSuffix(spansPath, ".jsonl")+"-"+name+".jsonl")
			}
		}
		cmd := exec.Command(self, args...)
		cmd.Stderr = os.Stderr
		var stdout bytes.Buffer
		cmd.Stdout = &stdout
		err := cmd.Run()
		os.Stdout.Write(stdout.Bytes())
		last := lastLine(stdout.Bytes())
		var r result
		if jerr := json.Unmarshal(last, &r); jerr != nil || r.Metrics == nil {
			fmt.Fprintf(os.Stderr, "benchmark: %s printed no result (%v)\n", name, err)
			total.Correct, status = false, 1
			continue
		}
		if err != nil {
			status = 1
		}
		total.Correct = total.Correct && r.Correct
		total.Attempted += r.Attempted
		total.Failed += r.Failed
		for k, v := range r.Metrics {
			total.Metrics[name+"."+k] = v
		}
	}
	if err := json.NewEncoder(os.Stdout).Encode(total); err != nil {
		return 1
	}
	return status
}

func lastLine(b []byte) []byte {
	lines := bytes.Split(bytes.TrimSpace(b), []byte("\n"))
	return lines[len(lines)-1]
}

// summarize prints a human-readable account of one run to w.
func summarize(w io.Writer, m meta, r result) {
	bw := bufio.NewWriter(w)
	defer bw.Flush()
	fmt.Fprintf(bw, "== %s seed=%d trace=%v valid=%v correct=%v attempted=%d failed=%d wall=%.1fs\n",
		m.Workload, m.Seed, m.Trace, m.Valid, r.Correct, r.Attempted, r.Failed, m.WallS)
	for _, s := range append(m.Invalid, m.Problems...) {
		fmt.Fprintf(bw, "   ! %s\n", s)
	}
	names := make([]string, 0, len(r.Metrics))
	for k := range r.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(bw, "   %-36s %14.4f %s\n", k, r.Metrics[k].Value, r.Metrics[k].Unit)
	}
	self := make([]string, 0, len(m.SelfS))
	for k := range m.SelfS {
		self = append(self, k)
	}
	sort.Strings(self)
	for _, k := range self {
		fmt.Fprintf(bw, "   self time %-26s %10.4f s\n", k, m.SelfS[k])
	}
}

// revision is the VCS revision the binary was built from, when the build
// recorded one.
func revision() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return ""
	}
	rev, dirty := "", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if rev != "" && dirty {
		rev += "+dirty"
	}
	return rev
}

// processCPU is the user plus system CPU time this process has used.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is this process's peak resident set (Linux reports KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 / 1e6
}
