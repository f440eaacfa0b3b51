package resume_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
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

// TestCheckpointEveryTickMatchesJSON: a checkpoint rewritten after every
// step of a seeded random sequence — tasks inserted, overwritten with a
// member of the same length or of another (a re-execution), graphs moved,
// blobs published and freed, now and then a task the encoder refuses, and
// tasks put into or deleted from the map directly — is json.Marshal's bytes
// at every write.
// The sequence runs on a fresh checkpoint, on a killed run's frontier as
// Reconstruct returns it, and on a copy of that frontier put task by task,
// as a resumed session seeds its own.
func TestCheckpointEveryTickMatchesJSON(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "run")
	killedDir(t, dir, 1)
	st, err := resume.Reconstruct(dir)
	if err != nil {
		t.Fatal(err)
	}
	seeded := resume.NewCheckpoint(st.Frontier.Attempt)
	for key, task := range st.Frontier.Tasks {
		seeded.PutTask(key, task)
	}
	seeded.Graphs, seeded.Blobs = st.Frontier.Graphs, st.Frontier.Blobs

	for _, c := range []struct {
		name string
		cp   *resume.Checkpoint
	}{
		{"fresh", resume.NewCheckpoint(1)},
		{"reconstructed", st.Frontier},
		{"seeded", seeded},
	} {
		t.Run(c.name, func(t *testing.T) {
			randomTicks(t, c.cp, 200, rand.New(rand.NewSource(int64(len(c.name)))))
		})
	}
}

// randomTicks applies ticks random steps of one to eight changes to cp,
// checking WriteCheckpoint against json.Marshal after each.
func randomTicks(t *testing.T, cp *resume.Checkpoint, ticks int, rng *rand.Rand) {
	t.Helper()
	keys := []string{"<a&b>", "line\u2028sep", "bad\xffutf8", "", "ünï"}
	for k := range cp.Tasks {
		keys = append(keys, k)
	}
	sort.Strings(keys) // the map's order must not steer the sequence
	task := func() resume.FrontierTask {
		ft := resume.FrontierTask{GraphID: rng.Intn(12), Size: rng.Int63n(1 << 30), StopSeconds: float64(rng.Intn(1e6)) / 1e3}
		if rng.Intn(4) == 0 {
			ft.Files = []dask.FileEffect{{Path: fmt.Sprintf("/lus/out/%d", rng.Intn(1000)), SizeAfter: rng.Int63n(1 << 20)}}
		}
		return ft
	}
	refused := false
	for tick := 0; tick < ticks; tick++ {
		for n := 1 + rng.Intn(8); n > 0; n-- {
			switch op := rng.Intn(20); {
			case op < 7 || len(cp.Tasks) == 0: // a new task
				k := fmt.Sprintf("t-%08x", rng.Uint32())
				keys = append(keys, k)
				cp.PutTask(k, task())
			case op < 10: // the same member length: its graph and size digits kept
				k := keys[rng.Intn(len(keys))]
				if old, ok := cp.Tasks[k]; ok {
					old.GraphID = (old.GraphID/10)*10 + rng.Intn(10)
					cp.PutTask(k, old)
				}
			case op < 13: // re-executed, or a key seen before put again
				cp.PutTask(keys[rng.Intn(len(keys))], task())
			case op < 16: // a graph moves
				g := fmt.Sprint(rng.Intn(12))
				cp.Graphs[g] = resume.GraphFrontier{Completed: rng.Intn(500), Done: rng.Intn(2) == 0}
			case op < 18: // a blob published, or freed
				if len(cp.Blobs) > 0 && rng.Intn(2) == 0 {
					i := rng.Intn(len(cp.Blobs))
					cp.Blobs = append(cp.Blobs[:i:i], cp.Blobs[i+1:]...)
				} else {
					cp.Blobs = append(cp.Blobs, resume.FrontierBlob{Key: keys[rng.Intn(len(keys))], Owner: rng.Intn(4), Size: rng.Int63n(1 << 24)})
				}
			case op < 19 && !refused: // a value JSON has no number for, put right at the next tick
				k := keys[rng.Intn(len(keys))]
				cp.PutTask(k, resume.FrontierTask{StopSeconds: math.NaN()})
				sameAsJSON(t, fmt.Sprintf("tick %d, NaN", tick), cp)
				cp.PutTask(k, task())
				refused = true
			case op < 19: // put, then deleted behind PutTask's back
				k := keys[rng.Intn(len(keys))]
				cp.PutTask(k, task())
				delete(cp.Tasks, k)
			default: // behind PutTask's back
				k := fmt.Sprintf("direct-%08x", rng.Uint32())
				keys = append(keys, k)
				cp.Tasks[k] = task()
			}
		}
		cp.AtSeconds = float64(tick) * 5
		sameAsJSON(t, fmt.Sprintf("tick %d", tick), cp)
	}
	if !refused {
		t.Fatal("the sequence never refused a task")
	}
}

// TestCheckpointRewriteEncodesOnlyWhatChanged: a checkpoint of 2 000 tasks,
// written once, encodes on its next write exactly the tasks put since: k
// new ones, one overwritten in place, none at all.
func TestCheckpointRewriteEncodesOnlyWhatChanged(t *testing.T) {
	cp, dir := frontier(2000), t.TempDir()
	write := func() int {
		t.Helper()
		if err := resume.WriteCheckpoint(dir, cp); err != nil {
			t.Fatal(err)
		}
		return resume.EncodedMembers(cp)
	}
	if n := write(); n != 2000 {
		t.Fatalf("the first write encoded %d members, want all 2000", n)
	}
	if n := write(); n != 0 {
		t.Fatalf("a write with nothing put encoded %d members", n)
	}
	for _, k := range []int{1, 7, 64} {
		for i := 0; i < k; i++ {
			cp.PutTask(fmt.Sprintf("added-%d-%03d", k, i), resume.FrontierTask{GraphID: 4, Size: 1, StopSeconds: 99})
		}
		if n := write(); n != k {
			t.Fatalf("a write after putting %d tasks encoded %d members", k, n)
		}
	}
	cp.PutTask("added-1-000", resume.FrontierTask{GraphID: 5, Size: 1, StopSeconds: 99})
	if n := write(); n != 1 {
		t.Fatalf("a write after overwriting one task encoded %d members", n)
	}
	sameAsJSON(t, "after the rewrites", cp)
}
