package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"taskprov/internal/core"
	"taskprov/internal/live"
	"taskprov/internal/mofka"
	"taskprov/internal/mofka/cluster"
	"taskprov/internal/workloads"
)

func TestCmdList(t *testing.T) {
	if err := cmdList(); err != nil {
		t.Fatal(err)
	}
}

func TestCmdRunWritesArtifacts(t *testing.T) {
	if testing.Short() {
		t.Skip("full workflow run")
	}
	dir := t.TempDir()
	err := cmdRun([]string{
		"-workflow", "imageprocessing", "-seed", "2", "-runs", "1", "-out", dir,
	})
	if err != nil {
		t.Fatal(err)
	}
	runDir := filepath.Join(dir, "imageprocessing-0002")
	for _, p := range []string{
		"metadata.json",
		filepath.Join("darshan", "rank0000.darshan"),
		filepath.Join("mofka", "task-executions.jsonl"),
		filepath.Join("mofka", "transfers.jsonl"),
	} {
		if _, err := os.Stat(filepath.Join(runDir, p)); err != nil {
			t.Fatalf("missing artifact %s: %v", p, err)
		}
	}
}

// TestCmdRunProfiles: -cpuprofile and -memprofile write both profiles and
// change nothing the run writes — the run dir is byte for byte the one the
// same command leaves without them.
func TestCmdRunProfiles(t *testing.T) {
	if testing.Short() {
		t.Skip("full workflow runs")
	}
	tmp := t.TempDir()
	cpu, mem := filepath.Join(tmp, "cpu.pprof"), filepath.Join(tmp, "mem.pprof")
	plain, profiled := filepath.Join(tmp, "plain"), filepath.Join(tmp, "profiled")
	run := []string{"-workflow", "imageprocessing", "-seed", "2", "-out"}
	if err := cmdRun(append(run[:len(run):len(run)], plain)); err != nil {
		t.Fatal(err)
	}
	if err := cmdRun(append(run[:len(run):len(run)], profiled, "-cpuprofile", cpu, "-memprofile", mem)); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{cpu, mem} {
		if st, err := os.Stat(p); err != nil || st.Size() == 0 {
			t.Errorf("profile %s: %v, want a non-empty file", filepath.Base(p), err)
		}
	}
	tree := func(root string) map[string]string {
		files := map[string]string{}
		err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
			if err != nil || d.IsDir() {
				return err
			}
			data, err := os.ReadFile(path)
			rel, _ := filepath.Rel(root, path)
			files[rel] = string(data)
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		return files
	}
	want, got := tree(plain), tree(profiled)
	if len(want) < 10 || len(got) != len(want) {
		t.Fatalf("%d files without the flags, %d with them", len(want), len(got))
	}
	for rel, data := range want {
		if got[rel] != data {
			t.Errorf("%s differs under the profile flags", rel)
		}
	}
}

// TestCmdRunSurvivesKillWithSpeculation: the command lines that used to abort
// the process with "dependency … has no holders" (ROADMAP item 1a — one worker
// kill with hedging on, on either data plane, and the full recipe) exit 0 and
// write a run dir whose warnings name the rescheduled tasks.
func TestCmdRunSurvivesKillWithSpeculation(t *testing.T) {
	if testing.Short() {
		t.Skip("full workflow runs")
	}
	for _, tc := range []struct {
		name string
		seed int
		args []string
	}{
		{"direct-seed7", 7, []string{"-chaos", "kill worker=2 at=6s restart=4s", "-speculate"}},
		{"direct-seed11", 11, []string{"-chaos", "kill worker=2 at=6s restart=4s", "-speculate"}},
		{"roadmap", 7, []string{"-proxy-threshold", "1048576", "-cluster", "3", "-replication", "2",
			"-chaos", "kill worker=2 at=6s restart=4s; slow worker=1 at=2s factor=6", "-speculate"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			args := append([]string{"-workflow", "imageprocessing", "-seed", fmt.Sprint(tc.seed), "-out", dir}, tc.args...)
			if err := cmdRun(args); err != nil {
				t.Fatal(err)
			}
			runDir := filepath.Join(dir, fmt.Sprintf("imageprocessing-%04d", tc.seed))
			if _, err := os.Stat(filepath.Join(runDir, "metadata.json")); err != nil {
				t.Fatalf("no run dir: %v", err)
			}
			warnings, err := os.ReadFile(filepath.Join(runDir, "mofka", "warnings.jsonl"))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Contains(warnings, []byte(`"kind":"task_rescheduled"`)) {
				t.Error("warnings name no rescheduled task")
			}
		})
	}
}

// TestCmdRejectsRPCDirective: "rpc" was a chaos directive run and resume
// accepted and never armed. A spec that carries it is refused when the flags
// are checked — by the unknown-directive error, which names the valid ones —
// before a data dir is created or touched.
func TestCmdRejectsRPCDirective(t *testing.T) {
	refused := func(err error) {
		t.Helper()
		if err == nil {
			t.Fatal(`-chaos "rpc op=drop" accepted`)
		}
		for _, want := range []string{`unknown directive "rpc"`, "kill", "broker", "scheduler", "wal", "slow", "net"} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("error %q does not mention %s", err, want)
			}
		}
	}
	out, data := t.TempDir(), filepath.Join(t.TempDir(), "data")
	refused(cmdRun([]string{"-workflow", "imageprocessing", "-seed", "3", "-out", out, "-data-dir", data,
		"-chaos", "kill worker=2 at=6s; rpc op=drop"}))
	if _, err := os.Stat(data); !os.IsNotExist(err) {
		t.Errorf("a refused run left a data dir behind (%v)", err)
	}

	// resume checks its -chaos the same way, ahead of opening the log.
	crashed := t.TempDir()
	meta := workloads.DefaultSession("imageprocessing", "imageprocessing-0003", 3).Metadata("imageprocessing")
	if err := os.WriteFile(filepath.Join(crashed, "metadata.json"), core.EncodeMetadata(meta), 0o644); err != nil {
		t.Fatal(err)
	}
	refused(cmdResume([]string{"-out", out, "-chaos", "rpc op=error count=1000", crashed}))
}

func TestCmdRunValidation(t *testing.T) {
	if err := cmdRun([]string{"-out", t.TempDir()}); err == nil {
		t.Fatal("missing -workflow accepted")
	}
	if err := cmdRun([]string{"-workflow", "ghost", "-out", t.TempDir()}); err == nil {
		t.Fatal("unknown workflow accepted")
	}
}

func TestCmdRunAblationFlags(t *testing.T) {
	if testing.Short() {
		t.Skip("full workflow run")
	}
	dir := t.TempDir()
	// -no-collect runs without writing artifacts and must not error.
	err := cmdRun([]string{
		"-workflow", "imageprocessing", "-seed", "3", "-out", dir, "-no-collect",
	})
	if err != nil {
		t.Fatal(err)
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 0 {
		t.Fatalf("no-collect run wrote artifacts: %v", entries)
	}
}

func TestMoveAsideDataDir(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "wal")
	// Not a data dir: nothing moves.
	if dst, err := moveAsideDataDir(dir); err != nil || dst != "" {
		t.Fatalf("moveAside on missing dir = %q, %v", dst, err)
	}
	mkDataDir := func() {
		b, err := mofka.NewDurableBroker(mofka.Options{DataDir: dir})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := b.OpenOrCreateTopic(mofka.TopicConfig{Name: "t", Partitions: 1}); err != nil {
			t.Fatal(err)
		}
		if err := b.Close(); err != nil {
			t.Fatal(err)
		}
	}
	mkDataDir()
	dst, err := moveAsideDataDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if dst != dir+".old-1" || !mofka.IsDataDir(dst) {
		t.Fatalf("moved to %q (data dir: %v)", dst, mofka.IsDataDir(dst))
	}
	if mofka.IsDataDir(dir) {
		t.Fatal("original dir still holds an event log")
	}
	// A second stale log picks the next free suffix.
	mkDataDir()
	if dst, err = moveAsideDataDir(dir); err != nil || dst != dir+".old-2" {
		t.Fatalf("second moveAside = %q, %v", dst, err)
	}
}

// TestCmdRunForceAndWatch covers the -force flow end to end plus
// `taskprov watch -once` over the resulting durable log.
func TestCmdRunForceAndWatch(t *testing.T) {
	if testing.Short() {
		t.Skip("full workflow run")
	}
	out, wal := t.TempDir(), t.TempDir()
	base := []string{"-workflow", "imageprocessing", "-seed", "7", "-out", out, "-data-dir", wal, "-live"}
	if err := cmdRun(base); err != nil {
		t.Fatal(err)
	}
	runWAL := filepath.Join(wal, "imageprocessing-0007")
	if !mofka.IsDataDir(runWAL) {
		t.Fatalf("%s is not a data dir", runWAL)
	}
	// Same seed again: refused without -force, accepted with it.
	if err := cmdRun(base); err == nil {
		t.Fatal("rerun over an existing event log succeeded without -force")
	}
	if err := cmdRun(append(base, "-force")); err != nil {
		t.Fatal(err)
	}
	if !mofka.IsDataDir(runWAL + ".old-1") {
		t.Fatal("stale log was not moved to .old-1")
	}

	// watch -once -json over the new log prints a parseable Summary.
	raw := watchOnceJSON(t, runWAL)
	var sum live.Summary
	if err := json.Unmarshal(raw, &sum); err != nil {
		t.Fatalf("watch -json output unparseable: %v\n%s", err, raw)
	}
	if sum.Tasks == 0 || sum.Workflow != "imageprocessing" {
		t.Fatalf("watch summary = %+v", sum)
	}
}

// watchOnceJSON is what `taskprov watch -data-dir dir -once -json` prints.
func watchOnceJSON(t *testing.T, dir string) []byte {
	t.Helper()
	stdout := os.Stdout
	pr, pw, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = pw
	printed := make(chan []byte)
	go func() {
		raw, _ := io.ReadAll(pr)
		printed <- raw
	}()
	watchErr := cmdWatch([]string{"-data-dir", dir, "-once", "-json"}, nil)
	_ = pw.Close()
	os.Stdout = stdout
	raw := <-printed
	if watchErr != nil {
		t.Fatal(watchErr)
	}
	return raw
}

// TestCmdWatchClusterDataDir: watch -data-dir takes a sharded cluster
// directory as it takes a single broker's, and prints exactly the summary a
// post-mortem replay of the same directory gives.
func TestCmdWatchClusterDataDir(t *testing.T) {
	if testing.Short() {
		t.Skip("full workflow run")
	}
	out, wal := t.TempDir(), t.TempDir()
	err := cmdRun([]string{"-workflow", "imageprocessing", "-seed", "11", "-out", out, "-data-dir", wal,
		"-cluster", "3", "-replication", "2"})
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(wal, "imageprocessing-0011")
	if !cluster.IsClusterDir(dir) {
		t.Fatalf("%s is not a cluster dir", dir)
	}
	want, err := live.ReplayDataDir(dir, live.AggregatorOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var wantJSON bytes.Buffer
	enc := json.NewEncoder(&wantJSON)
	enc.SetIndent("", "  ")
	if err := enc.Encode(want); err != nil {
		t.Fatal(err)
	}
	if got := watchOnceJSON(t, dir); !bytes.Equal(got, wantJSON.Bytes()) {
		t.Fatalf("watch -once -json differs from live.ReplayDataDir of the same dir:\n%s\nwant:\n%s", got, wantJSON.Bytes())
	}
	if want.Tasks == 0 || want.Workflow != "imageprocessing" {
		t.Fatalf("summary = %+v", want)
	}
}

// TestCmdRunRefusedLeavesNoLog: a -chaos spec naming a worker, broker node
// or broker cluster the run does not have is refused before the run's data
// dir is created, so the same command without it then runs into that dir
// instead of being refused for the log the refused one left.
func TestCmdRunRefusedLeavesNoLog(t *testing.T) {
	if testing.Short() {
		t.Skip("full workflow runs")
	}
	for _, tc := range []struct {
		name, chaos, want string
		args              []string
	}{
		{"worker", "kill worker=99 at=1s", "kill worker=99 but cluster has 8 workers", nil},
		{"broker-node", "broker node=7 at=1s", "broker node=7 but cluster has 3 brokers", []string{"-cluster", "3", "-replication", "2"}},
		{"broker-standalone", "broker node=1 at=1s", "requires ClusterBrokers > 0", nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			out, data := t.TempDir(), t.TempDir()
			args := append([]string{"-workflow", "imageprocessing", "-seed", "3", "-out", out, "-data-dir", data}, tc.args...)
			err := cmdRun(append(args[:len(args):len(args)], "-chaos", tc.chaos))
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("-chaos %q: error %v, want one saying %q", tc.chaos, err, tc.want)
			}
			runDir := filepath.Join(data, "imageprocessing-0003")
			if _, err := os.Stat(runDir); !os.IsNotExist(err) {
				t.Fatalf("the refused run left %s behind (%v)", runDir, err)
			}
			if err := cmdRun(args); err != nil {
				t.Fatalf("the same command without -chaos: %v", err)
			}
		})
	}
}

// TestCmdRunForceValidatesFirst: -force moves a stale log aside only for a
// run it will start; a refused configuration leaves the log where it was.
func TestCmdRunForceValidatesFirst(t *testing.T) {
	data := t.TempDir()
	runDir := filepath.Join(data, "imageprocessing-0003")
	b, err := mofka.NewDurableBroker(mofka.Options{DataDir: runDir})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.OpenOrCreateTopic(mofka.TopicConfig{Name: "t", Partitions: 1}); err != nil {
		t.Fatal(err)
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	err = cmdRun([]string{"-workflow", "imageprocessing", "-seed", "3", "-out", t.TempDir(), "-data-dir", data,
		"-force", "-chaos", "rpc op=drop"})
	if err == nil {
		t.Fatal(`-force -chaos "rpc op=drop" accepted`)
	}
	if !mofka.IsDataDir(runDir) {
		t.Error("the refused run moved the existing log away")
	}
	if _, err := os.Stat(runDir + ".old-1"); !os.IsNotExist(err) {
		t.Errorf("the refused run made %s.old-1 (%v)", runDir, err)
	}
}

// TestCmdResumeKeepsQuorum: a crashed cluster run's -quorum is recorded in
// its metadata and restored by resume, which reopens the cluster with the
// quorum its cluster.json holds (a different one is refused). So is every
// other knob of the run: the resumed attempt records the configuration the
// crashed one did, less the fault.
func TestCmdResumeKeepsQuorum(t *testing.T) {
	if testing.Short() {
		t.Skip("full workflow runs")
	}
	out, data := t.TempDir(), t.TempDir()
	err := cmdRun([]string{"-workflow", "imageprocessing", "-seed", "3", "-out", out, "-data-dir", data,
		"-cluster", "3", "-replication", "3", "-quorum", "1", "-live", "-speculate", "-no-steal",
		"-chaos", "scheduler at=30s"})
	var crash *core.CrashError
	if !errors.As(err, &crash) {
		t.Fatalf("crashed run: %v, want a CrashError", err)
	}
	dir := filepath.Join(data, "imageprocessing-0003")
	recorded := func() core.SessionConfig {
		t.Helper()
		raw, err := os.ReadFile(filepath.Join(dir, "metadata.json"))
		if err != nil {
			t.Fatal(err)
		}
		m, err := core.DecodeMetadata(raw)
		if err != nil {
			t.Fatal(err)
		}
		cfg, err := core.ConfigFromMetadata(m)
		if err != nil {
			t.Fatal(err)
		}
		return cfg
	}
	crashed := recorded()
	if err := cmdResume([]string{"-out", out, dir}); err != nil {
		t.Fatal(err)
	}
	crashed.ChaosSpec = ""
	if resumed := recorded(); !reflect.DeepEqual(resumed, crashed) {
		t.Errorf("the resumed attempt records\n%+v\nthe crashed one recorded\n%+v", resumed, crashed)
	}
	for _, meta := range []string{filepath.Join(dir, "metadata.json"), filepath.Join(out, "imageprocessing-0003", "metadata.json")} {
		raw, err := os.ReadFile(meta)
		if err != nil {
			t.Fatal(err)
		}
		var m struct {
			Attempt         int
			Instrumentation map[string]any
		}
		if err := json.Unmarshal(raw, &m); err != nil {
			t.Fatal(err)
		}
		if q := m.Instrumentation["cluster_quorum"]; q != 1.0 || m.Attempt != 2 {
			t.Errorf("%s: attempt %d, cluster_quorum %v; want the resumed attempt 2 at quorum 1", meta, m.Attempt, q)
		}
	}
}
