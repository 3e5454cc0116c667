// Command earthplus-sim runs one configurable end-to-end simulation of a
// compression system over a synthetic constellation and prints the summary
// statistics and a per-capture trace. Systems are resolved by name through
// the public registry, so ablation variants registered by other packages
// run unchanged.
//
// Usage:
//
//	earthplus-sim -system earthplus -dataset planet -sats 8 -days 60
//	earthplus-sim -system kodan -dataset rich -gamma 0.5 -trace
//	earthplus-sim -dataset rich -simworkers 8   # shard days across 8 workers
//	earthplus-sim -storage 2000000 -evictpolicy schedule   # bound the on-board store
//	earthplus-sim -storage 2000000 -refcompress   # hold references compressed (decode-on-visit)
//	earthplus-sim -linkloss 0.01 -linkseed 7   # deterministic 1% link fault injection
//	earthplus-sim -sats 16 -stations 2   # contended ground stations, per-contact budgets
package main

import (
	"flag"
	"fmt"
	"os"

	"earthplus/internal/cli"
	"earthplus/pkg/earthplus"
)

func main() {
	var perf cli.Perf
	var ds cli.Dataset
	var sysFlags cli.SystemFlags
	perf.Register(flag.CommandLine)
	ds.Register(flag.CommandLine, "planet", 8)
	sysFlags.Register(flag.CommandLine)
	system := flag.String("system", earthplus.SystemEarthPlus,
		fmt.Sprintf("system to run (%v)", earthplus.Systems()))
	days := flag.Int("days", 60, "evaluation days")
	start := flag.Int("start", 40, "first evaluation day")
	gamma := flag.Float64("gamma", 1.0, "bits per pixel per downloaded tile (the paper's γ)")
	trace := flag.Bool("trace", false, "print the per-capture trace")
	dump := flag.String("dump", "", "write the run as a JSON-lines trace to this file")
	flag.Parse()
	cli.MustValidate("earthplus-sim", &sysFlags)
	perf.Apply()

	env, err := ds.Env()
	if err != nil {
		cli.Fail("earthplus-sim", "%v", err)
	}
	env.Parallelism = perf.SimWorkers

	spec := sysFlags.Spec()
	spec.GammaBPP = *gamma
	sys, err := earthplus.NewSystem(*system, env, spec)
	if err != nil {
		cli.Fail("earthplus-sim", "%v", err)
	}

	res, err := earthplus.Run(env, sys, *start-30, *start, *start+*days)
	if err != nil {
		cli.Fail("earthplus-sim", "%v", err)
	}
	if *dump != "" {
		f, err := os.Create(*dump)
		if err != nil {
			cli.Fail("earthplus-sim", "%v", err)
		}
		if err := earthplus.WriteTrace(f, res); err != nil {
			cli.Fail("earthplus-sim", "writing trace: %v", err)
		}
		if err := f.Close(); err != nil {
			cli.Fail("earthplus-sim", "%v", err)
		}
		fmt.Printf("trace written to %s\n", *dump)
	}
	if *trace {
		rows := [][]string{{"day", "loc", "sat", "cloud", "dropped", "tiles", "bytes", "PSNR", "refAge", "miss"}}
		for _, r := range res.Records {
			rows = append(rows, []string{
				fmt.Sprintf("%d", r.Day),
				fmt.Sprintf("%d", r.Loc),
				fmt.Sprintf("%d", r.Sat),
				fmt.Sprintf("%.0f%%", r.TrueCoverage*100),
				fmt.Sprintf("%v", r.Dropped),
				fmt.Sprintf("%.0f%%", r.DownTileFrac*100),
				fmt.Sprintf("%d", r.DownBytes),
				fmt.Sprintf("%.1f", r.PSNR),
				fmt.Sprintf("%d", r.RefAge),
				fmt.Sprintf("%v", r.RefMiss),
			})
		}
		earthplus.Table(os.Stdout, rows)
		fmt.Println()
	}
	s := earthplus.Summarize(res, env.Downlink)
	fmt.Printf("system              %s\n", sys.Name())
	fmt.Printf("captures            %d (%d dropped)\n", s.Captures, s.Dropped)
	fmt.Printf("mean PSNR           %.1f dB\n", s.MeanPSNR)
	fmt.Printf("mean tiles/capture  %.0f%%\n", s.MeanTileFrac*100)
	fmt.Printf("mean bytes/capture  %.0f\n", s.MeanDownBytes)
	if s.RequiredDownlinkBps >= 1e6 {
		fmt.Printf("required downlink   %.2f Mbps\n", s.RequiredDownlinkBps/1e6)
	} else {
		fmt.Printf("required downlink   %.2f kbps\n", s.RequiredDownlinkBps/1e3)
	}
	fmt.Printf("mean reference age  %.1f days\n", s.MeanRefAge)
	fmt.Printf("uplink used         %.0f bytes/day\n", s.MeanUpBytesPerDay)
}
