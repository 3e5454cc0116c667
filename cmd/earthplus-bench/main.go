// Command earthplus-bench regenerates every table and figure of the
// paper's evaluation section and prints them as text. By default it runs
// at the quick scale; -full runs closer to paper scale (expect a long
// run), and -only selects a single artefact.
//
// Usage:
//
//	earthplus-bench            # every experiment, quick scale
//	earthplus-bench -full      # every experiment, full scale
//	earthplus-bench -only fig11b
//	earthplus-bench -only codecbench   # codec perf snapshot -> BENCH_codec.json
//	earthplus-bench -only simbench     # sim engine snapshot -> BENCH_sim.json
//	earthplus-bench -only servebench   # serving-tier load snapshot -> BENCH_serve.json
//	earthplus-bench -only constsweep   # contended ground-station sweep
//	earthplus-bench -only simscale     # engine worker-scaling probe
//	earthplus-bench -parallel 8        # bound per-image band workers
//	earthplus-bench -simworkers 8      # bound per-day location shards
//	earthplus-bench -only fig17 -tiledstore   # system flags configure the Earth+ runs of Figs 11-19
//	earthplus-bench -list
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"earthplus/internal/cli"
	"earthplus/internal/servebench"
	"earthplus/pkg/earthplus"
)

func main() {
	var perf cli.Perf
	var sysFlags cli.SystemFlags
	perf.Register(flag.CommandLine)
	sysFlags.Register(flag.CommandLine)
	full := flag.Bool("full", false, "run at full (paper-ish) scale instead of quick")
	only := flag.String("only", "", "run a single experiment (see -list)")
	list := flag.Bool("list", false, "list experiment identifiers and exit")
	benchJSON := flag.String("benchjson", "BENCH_codec.json",
		"where codecbench writes its JSON snapshot (empty = don't write)")
	simBenchJSON := flag.String("simbenchjson", "BENCH_sim.json",
		"where simbench writes its JSON snapshot (empty = don't write)")
	serveBenchJSON := flag.String("servebenchjson", "BENCH_serve.json",
		"where servebench writes its JSON snapshot (empty = don't write)")
	flag.Parse()
	cli.MustValidate("earthplus-bench", &sysFlags)
	perf.Apply()

	sc := earthplus.QuickScale()
	if *full {
		sc = earthplus.FullScale()
	}
	sc.Spec = sysFlags.Spec()
	jobs := earthplus.Experiments(sc, *benchJSON, *simBenchJSON)
	// The serving-tier load snapshot lives outside the public catalog:
	// internal/experiments sits below pkg/earthplus in the import graph and
	// so cannot reach pkg/earthplus/serve; appending the job here keeps the
	// Experiments signature stable.
	jobs = append(jobs, earthplus.ExperimentJob{
		Key: "servebench",
		Run: func() (earthplus.ExperimentResult, error) {
			return servebench.Run(*serveBenchJSON)
		},
	})

	if *list {
		var keys []string
		for _, j := range jobs {
			keys = append(keys, j.Key)
		}
		sort.Strings(keys)
		fmt.Println(strings.Join(keys, "\n"))
		return
	}

	ran := 0
	for _, j := range jobs {
		if *only != "" && j.Key != strings.ToLower(*only) {
			continue
		}
		ran++
		t0 := time.Now()
		res, err := j.Run()
		if err != nil {
			cli.Fail("earthplus-bench", "%s: %v", j.Key, err)
		}
		fmt.Printf("===== %s (%s, %.1fs) =====\n", res.ID(), j.Key, time.Since(t0).Seconds())
		if err := res.Render(os.Stdout); err != nil {
			cli.Fail("earthplus-bench", "rendering %s: %v", j.Key, err)
		}
		fmt.Println()
	}
	if ran == 0 {
		cli.Fail("earthplus-bench", "unknown experiment %q (try -list)", *only)
	}
}
