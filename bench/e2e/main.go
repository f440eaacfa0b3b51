// Command e2e is the repository's end-to-end benchmark: it runs one of four
// workloads as a closed loop (one client, one job at a time), checks the
// outputs, and prints every metric by name and unit, the last line being one
// JSON object {correct, attempted, failed, metrics}.
//
//	go run -C bench/e2e . -workload collect-mem [-seed 1] [-seconds 20] [-trace 1]
//	go run -C bench/e2e . -repeat 2            # all workloads twice, differences against bounds
//	go run -C bench/e2e . -compare old.json new.json
//
// See README.md for the metrics, the workloads and the noise method.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

func main() {
	start := time.Now()
	os.Exit(run(start, os.Args[1:]))
}

func run(start time.Time, args []string) int {
	fs := flag.NewFlagSet("e2e", flag.ContinueOnError)
	var cfg config
	var trace, repeat int
	var varySeed bool
	var compare, summarize, printBenchmark bool
	var updateRef, out string
	fs.StringVar(&cfg.workload, "workload", "", "workload to run: sim-only, collect-mem, collect-durable or analyze")
	fs.Uint64Var(&cfg.seed, "seed", 1, "seed of every session of the run (all cycles do identical work)")
	fs.IntVar(&cfg.seconds, "seconds", declaredRunSeconds, "run length the fixed cycle counts are scaled to (never a time box)")
	fs.IntVar(&trace, "trace", 0, "1 adds the traced pass and the stage replays and reports the per-layer metrics")
	fs.StringVar(&cfg.traceOut, "trace-out", "", "where -trace 1 writes the Chrome trace (default <tmp>/trace-<workload>.json)")
	fs.BoolVar(&cfg.smoke, "smoke", false, "one cycle of imageprocessing only: exercises every code path in seconds")
	fs.StringVar(&cfg.tmp, "tmp", filepath.Join(".bench_build", "e2e"), "scratch root for data dirs and traces")
	fs.IntVar(&repeat, "repeat", 0, "run every workload this many times in child processes and judge the spread against the bounds")
	fs.BoolVar(&varySeed, "vary-seed", false, "with -repeat: give each repetition another seed, as the acceptance pipeline does")
	fs.StringVar(&out, "out", "", "with -repeat: also write the collected values to this JSON file, for -compare")
	fs.BoolVar(&compare, "compare", false, "compare two -out files: e2e -compare old.json new.json")
	fs.BoolVar(&summarize, "summarize", false, "print the collection budget from -out files: e2e -summarize results.json")
	fs.StringVar(&updateRef, "update-reference", "", "re-measure the pinned numbers and write them to this file (testdata/reference.json)")
	fs.BoolVar(&printBenchmark, "print-benchmark-json", false, "print BENCHMARK.json as the metric tables define it")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	// The closed loop has one client; a second core is there for the live
	// monitor's and the cluster's goroutines, as on a user's machine.
	runtime.GOMAXPROCS(min(2, runtime.NumCPU()))
	cfg.trace = trace != 0
	if cfg.traceOut == "" {
		cfg.traceOut = filepath.Join(cfg.tmp, "trace-"+cfg.workload+".json")
	}

	var err error
	switch {
	case printBenchmark:
		_, err = os.Stdout.Write(benchmarkJSON())
	case updateRef != "":
		err = updateReference(updateRef)
	case compare:
		if fs.NArg() != 2 {
			err = fmt.Errorf("-compare wants two files")
		} else {
			var regressed bool
			regressed, err = compareFiles(os.Stdout, fs.Arg(0), fs.Arg(1))
			if err == nil && regressed {
				return 1
			}
		}
	case summarize:
		err = summarizeFiles(os.Stdout, fs.Args())
	case repeat > 0:
		var ok bool
		ok, err = repeatAll(os.Stdout, cfg, repeat, varySeed, out)
		if err == nil && !ok {
			return 1
		}
	default:
		var res result
		res, err = runWorkload(cfg, start, os.Stdout)
		if err == nil {
			fmt.Println(res.line())
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2e:", err)
		return 1
	}
	return 0
}
