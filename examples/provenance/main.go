// Provenance example: demonstrate the collect-separately / fuse-at-analysis
// pipeline end to end — run a workflow, persist its artifacts to disk (the
// same layout cmd/taskprov writes), load them back (as cmd/perfrecup does),
// attribute every POSIX operation to the task that issued it, and export a
// fused view as CSV.
//
//	go run ./examples/provenance
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"

	"taskprov/internal/core"
	"taskprov/internal/perfrecup"
	"taskprov/internal/perfrecup/frame"
	"taskprov/internal/workloads"
)

func main() {
	wf, err := workloads.New("imageprocessing")
	if err != nil {
		log.Fatal(err)
	}
	cfg := workloads.DefaultSession("imageprocessing", "prov-example", 11)
	art, err := core.Run(cfg, wf)
	if err != nil {
		log.Fatal(err)
	}

	dir, err := os.MkdirTemp("", "taskprov-run-*")
	if err != nil {
		log.Fatal(err)
	}
	defer func() { _ = os.RemoveAll(dir) }()
	runDir := filepath.Join(dir, "imageprocessing-0011")
	if err := art.WriteDir(runDir); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("artifacts written to %s:\n", runDir)
	_ = filepath.Walk(runDir, func(path string, info os.FileInfo, err error) error {
		if err == nil && !info.IsDir() {
			rel, _ := filepath.Rel(runDir, path)
			fmt.Printf("  %-34s %8d bytes\n", rel, info.Size())
		}
		return nil
	})

	// Reload, as an analysis process on another machine would.
	loaded, err := core.LoadDir(runDir)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nreloaded run: workflow=%s seed=%d platform=%s wall=%.1fs\n",
		loaded.Meta.Workflow, loaded.Meta.Seed, loaded.Meta.Platform.Name, loaded.Meta.WallSeconds)

	// Fuse Darshan DXT with task executions on (hostname, pthread ID,
	// timestamps) and summarize I/O per task category.
	sum, err := perfrecup.TaskIOSummary(loaded)
	if err != nil {
		log.Fatal(err)
	}
	agg := sum.GroupBy("prefix").Agg(
		frame.Agg{Col: "io_ops", Fn: frame.Sum, As: "ops"},
		frame.Agg{Col: "io_bytes", Fn: frame.Sum, As: "bytes"},
	)
	fmt.Println("\nI/O attributed per task category:")
	for i := 0; i < agg.NRows(); i++ {
		fmt.Printf("  %-14s %6.0f ops %10.1f MB\n",
			agg.Col("prefix").Str(i), agg.Col("ops").Float(i), agg.Col("bytes").Float(i)/(1<<20))
	}

	// Export the fused view as CSV for external tools (pandas, R, ...).
	out := filepath.Join(dir, "task_io.csv")
	f, err := os.Create(out)
	if err != nil {
		log.Fatal(err)
	}
	if err := sum.WriteCSV(f); err != nil {
		log.Fatal(err)
	}
	if err := f.Close(); err != nil {
		log.Fatal(err)
	}
	st, _ := os.Stat(out)
	fmt.Printf("\nfused view exported: %s (%d bytes)\n", out, st.Size())
}
