package resume_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"taskprov/internal/core"
	"taskprov/internal/dask"
	"taskprov/internal/resume"
	"taskprov/internal/workloads"
)

// sameAsJSON fails the test unless WriteCheckpoint writes exactly the bytes
// json.Marshal gives cp — twice, the second write reusing the buffer of the
// first — or both refuse it.
func sameAsJSON(t *testing.T, name string, cp *resume.Checkpoint) {
	t.Helper()
	want, jerr := json.Marshal(cp)
	dir := t.TempDir()
	for write := 1; write <= 2; write++ {
		werr := resume.WriteCheckpoint(dir, cp)
		if (werr == nil) != (jerr == nil) {
			t.Fatalf("%s: WriteCheckpoint error %v, json.Marshal error %v", name, werr, jerr)
		}
		if jerr != nil {
			return
		}
		got, err := os.ReadFile(filepath.Join(dir, resume.CheckpointFile))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			at := 0
			for at < len(got) && at < len(want) && got[at] == want[at] {
				at++
			}
			t.Fatalf("%s, write %d: bytes differ from json.Marshal at offset %d:\n got %.120q\nwant %.120q",
				name, write, at, got[at:], want[at:])
		}
	}
}

// sessionCheckpoint checks the checkpoint a session left in dataDir: the
// file its frontier wrote holds json.Marshal's bytes for the checkpoint it
// decodes to, and so does a rewrite of that. It returns the checkpoint.
func sessionCheckpoint(t *testing.T, name, dataDir string) *resume.Checkpoint {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join(dataDir, resume.CheckpointFile))
	if err != nil {
		t.Fatal(err)
	}
	cp, err := resume.LoadCheckpoint(dataDir)
	if err != nil {
		t.Fatal(err)
	}
	if want, err := json.Marshal(cp); err != nil || !bytes.Equal(raw, want) {
		t.Fatalf("%s: the session's checkpoint is not json.Marshal's encoding of itself (%v)", name, err)
	}
	sameAsJSON(t, name, cp)
	return cp
}

// TestCheckpointEncodingMatchesJSON: the checkpoint encoder writes exactly
// json.Marshal's bytes — for the frontiers the three paper workflows leave
// behind, for a killed run's frontier with live blobs, and for hostile
// values: HTML-sensitive bytes, U+2028, invalid UTF-8 and control bytes in
// every string, graph ids from 10 up (byte-wise order puts "10" before "2"),
// nil and empty file lists, nil maps, no blobs, and floats at the edges of
// encoding/json's two forms. NaN and infinities are refused by both.
func TestCheckpointEncodingMatchesJSON(t *testing.T) {
	for _, name := range workloads.Names() {
		wf, err := workloads.New(name)
		if err != nil {
			t.Fatal(err)
		}
		cfg := workloads.DefaultSession(name, "job-"+name, 3)
		cfg.MofkaDataDir = filepath.Join(t.TempDir(), name)
		cfg.MofkaSyncPolicy = "never"
		if _, err := core.Run(cfg, wf); err != nil {
			t.Fatal(err)
		}
		if cp := sessionCheckpoint(t, name, cfg.MofkaDataDir); len(cp.Tasks) == 0 {
			t.Fatalf("%s: the final checkpoint holds no task", name)
		}
	}
	// Blobs are live mid-run: pass by reference and kill the scheduler.
	wf, err := workloads.New("imageprocessing")
	if err != nil {
		t.Fatal(err)
	}
	cfg := workloads.DefaultSession("imageprocessing", "job-killed", 3)
	cfg.MofkaDataDir = filepath.Join(t.TempDir(), "killed")
	cfg.MofkaSyncPolicy = "never"
	cfg.Dask.ProxyThresholdBytes = 1 << 20
	cfg.ChaosSpec = "scheduler at=10s"
	var crash *core.CrashError
	if _, err := core.Run(cfg, wf); !errors.As(err, &crash) {
		t.Fatalf("the session was to be killed mid-run, got %v", err)
	}
	if cp := sessionCheckpoint(t, "killed", cfg.MofkaDataDir); len(cp.Blobs) == 0 {
		t.Fatal("the killed run's checkpoint holds no live blob")
	}

	hostile := []string{"<a&b>", "line\u2028sep\u2029", "bad\xffutf8\xc3", "ctl\x00\x01\x1f\x7f\b\f\n\r\t\"\\", "ünïcødé", "", "/"}
	cp := resume.NewCheckpoint(3)
	cp.AtSeconds = 25.000000001
	for i, s := range hostile {
		cp.Tasks[s] = resume.FrontierTask{GraphID: i, Size: int64(i) << 40, StopSeconds: float64(i) / 3,
			Files: []dask.FileEffect{{Path: s, SizeAfter: -1}, {}}}
		cp.Blobs = append(cp.Blobs, resume.FrontierBlob{Key: s, Owner: -1, Size: 1})
		cp.Graphs[s] = resume.GraphFrontier{Completed: i}
	}
	for _, id := range []int{1, 2, 9, 10, 11, 100, -1, -20} {
		cp.Graphs[fmt.Sprint(id)] = resume.GraphFrontier{Completed: id * 7, Done: id%2 == 0}
	}
	cp.Tasks["nil-files"] = resume.FrontierTask{GraphID: 10}
	cp.Tasks["empty-files"] = resume.FrontierTask{GraphID: 2, Files: []dask.FileEffect{}}
	sameAsJSON(t, "hostile", cp)

	for i, f := range []float64{0, math.Copysign(0, -1), 1e-6, 9.99e-7, 1e20, 1e21, 123456789.125, -5e-324, math.MaxFloat64, 1e-300} {
		edge := resume.NewCheckpoint(i)
		edge.AtSeconds = f
		edge.Tasks["t"] = resume.FrontierTask{StopSeconds: -f}
		sameAsJSON(t, fmt.Sprintf("float %v", f), edge)
	}
	sameAsJSON(t, "empty", resume.NewCheckpoint(0))
	sameAsJSON(t, "nil maps, empty blobs", &resume.Checkpoint{Attempt: -1, Blobs: []resume.FrontierBlob{}})
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		at := resume.NewCheckpoint(1)
		at.AtSeconds = bad
		sameAsJSON(t, fmt.Sprintf("at_seconds %v", bad), at)
		stop := resume.NewCheckpoint(1)
		stop.Tasks["t"] = resume.FrontierTask{StopSeconds: bad}
		sameAsJSON(t, fmt.Sprintf("stop_seconds %v", bad), stop)
	}
}

// frontier is a checkpoint of n completed tasks shaped like the paper
// workflows' — hashed keys over three graphs, one task in eight with a file
// effect — and a few live blobs.
func frontier(n int) *resume.Checkpoint {
	cp := resume.NewCheckpoint(1)
	cp.AtSeconds = 42.5
	for i := 0; i < n; i++ {
		g := 1 + i%3
		task := resume.FrontierTask{GraphID: g, Size: 4 << 20, StopSeconds: float64(i) * 0.013}
		if i%8 == 0 {
			task.Files = []dask.FileEffect{{Path: fmt.Sprintf("/lus/out/part-%05d.bin", i), SizeAfter: 1 << 20}}
		}
		cp.Tasks[fmt.Sprintf("grayscale-%012x", uint64(i)*0x9e3779b97f4a7c15>>16)] = task
		gf := cp.Graphs[fmt.Sprint(g)]
		gf.Completed++
		cp.Graphs[fmt.Sprint(g)] = gf
	}
	for i := 0; i < 8; i++ {
		cp.Blobs = append(cp.Blobs, resume.FrontierBlob{Key: fmt.Sprintf("blob-%02d", i), Owner: i % 4, Size: 4 << 20})
	}
	return cp
}

// checkpointAllocs pins the mallocs of rewriting an already written
// checkpoint: the directory check, the temp file and its name, the rename —
// nothing per task. Through json.Marshal, WriteCheckpoint allocated 4 025
// times for the 2 000-task frontier and 425 for the 200-task one, on top of
// the copy of the frontier the session took for it.
const checkpointAllocs = 16

// TestCheckpointAllocationsIndependentOfFrontier: a checkpoint written again,
// as the periodic one is, allocates a small constant, the same for a
// 2 000-task frontier as for a 200-task one.
func TestCheckpointAllocationsIndependentOfFrontier(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation pin; the race detector allocates on its own")
	}
	allocs := func(n int) float64 {
		cp, dir := frontier(n), t.TempDir()
		if err := resume.WriteCheckpoint(dir, cp); err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(20, func() {
			if err := resume.WriteCheckpoint(dir, cp); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(200), allocs(2000)
	if large != small || large > checkpointAllocs {
		t.Fatalf("a second checkpoint allocates %v times for 2 000 tasks, %v for 200: want the same, at most %d",
			large, small, checkpointAllocs)
	}
}
