// Command benchjson converts `go test -bench` text output on stdin into a
// stable JSON document on stdout, so benchmark results can be checked in
// and diffed across changes (see `make bench-proxy` and
// BENCH_proxystore.json). Only standard benchmark result lines are parsed;
// everything else (PASS, ok, warm-up noise) is ignored.
package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"strconv"
	"strings"
)

// result is one benchmark line. Fields absent from the input (e.g. MB/s
// without -benchtime SetBytes) stay zero and are omitted. Custom units
// reported via b.ReportMetric (e.g. the proxy benchmark's control-B/op)
// land in Extra keyed by their unit string.
type result struct {
	Name        string             `json:"name"`
	Iterations  int64              `json:"iterations"`
	NsPerOp     float64            `json:"ns_per_op"`
	MBPerSec    float64            `json:"mb_per_s,omitempty"`
	BytesPerOp  int64              `json:"bytes_per_op,omitempty"`
	AllocsPerOp int64              `json:"allocs_per_op,omitempty"`
	Extra       map[string]float64 `json:"extra,omitempty"`
}

func main() {
	var results []result
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		f := strings.Fields(line)
		if len(f) < 3 {
			continue
		}
		iters, err := strconv.ParseInt(f[1], 10, 64)
		if err != nil {
			continue
		}
		r := result{Name: f[0], Iterations: iters}
		for i := 2; i+1 < len(f); i += 2 {
			v, err := strconv.ParseFloat(f[i], 64)
			if err != nil {
				continue
			}
			switch f[i+1] {
			case "ns/op":
				r.NsPerOp = v
			case "MB/s":
				r.MBPerSec = v
			case "B/op":
				r.BytesPerOp = int64(v)
			case "allocs/op":
				r.AllocsPerOp = int64(v)
			default:
				if r.Extra == nil {
					r.Extra = make(map[string]float64)
				}
				r.Extra[f[i+1]] = v
			}
		}
		results = append(results, r)
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(results); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}
