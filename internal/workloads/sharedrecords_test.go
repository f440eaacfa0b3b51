package workloads

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"taskprov/internal/core"
	"taskprov/internal/mofka"
	"taskprov/internal/perfrecup"
	"taskprov/internal/perfrecup/frame"
)

// analysis is one reader of a run's records, rendered to bytes.
type analysis struct {
	name string
	run  func(*core.RunArtifacts) (string, error)
}

func frameOf(view func(*core.RunArtifacts) (*frame.Frame, error)) func(*core.RunArtifacts) (string, error) {
	return func(art *core.RunArtifacts) (string, error) {
		f, err := view(art)
		if err != nil {
			return "", err
		}
		var b bytes.Buffer
		err = f.WriteCSV(&b)
		return b.String(), err
	}
}

func printed[T any](f func(*core.RunArtifacts) (T, error)) func(*core.RunArtifacts) (string, error) {
	return func(art *core.RunArtifacts) (string, error) {
		v, err := f(art)
		return fmt.Sprintf("%+v", v), err
	}
}

// analyses lists every reader of the decoded records: the perfrecup views
// and reports, the critical path, the whatif model and the synthesized logs.
func analyses(key string) []analysis {
	return []analysis{
		{"executions", frameOf(perfrecup.ExecutionsView)},
		{"transitions", frameOf(perfrecup.TransitionsView)},
		{"transfers", frameOf(perfrecup.TransfersView)},
		{"proxy", frameOf(perfrecup.ProxyView)},
		{"warnings", frameOf(perfrecup.WarningsView)},
		{"dxt", frameOf(perfrecup.DXTView)},
		{"posix", frameOf(perfrecup.PosixView)},
		{"task-meta", frameOf(perfrecup.TaskMetaView)},
		{"heartbeats", frameOf(perfrecup.HeartbeatsView)},
		{"utilization", frameOf(perfrecup.WorkerUtilizationView)},
		{"cluster", frameOf(perfrecup.ClusterTimelineView)},
		{"recovery", frameOf(perfrecup.RecoveryTimelineView)},
		{"speculation", frameOf(perfrecup.SpeculationTimelineView)},
		{"critpath-view", frameOf(perfrecup.CritPathView)},
		{"io-to-tasks", frameOf(perfrecup.AttributeIOToTasks)},
		{"task-io", frameOf(perfrecup.TaskIOSummary)},
		{"parallel-coords", frameOf(perfrecup.ParallelCoords)},
		{"phases", printed(perfrecup.Phases)},
		{"comm-scatter", printed(perfrecup.CommScatter)},
		{"table-i", perfrecup.RenderTableIRow},
		{"critpath", perfrecup.RenderCritPath},
		{"critpath-svg", perfrecup.CritPathSVG},
		{"io-timeline", func(art *core.RunArtifacts) (string, error) { return perfrecup.IOTimeline(art, 40, 1<<20) }},
		{"warning-histogram", printed(func(art *core.RunArtifacts) (map[string]perfrecup.Histogram, error) {
			return perfrecup.WarningHistogram(art, 1)
		})},
		{"correlate", printed(func(art *core.RunArtifacts) (perfrecup.CorrelationReport, error) {
			return perfrecup.Correlate(art, 1)
		})},
		{"window", printed(func(art *core.RunArtifacts) (perfrecup.WindowStats, error) {
			return perfrecup.Window(art, 0, art.WallTime.Seconds()/2)
		})},
		{"compare", printed(func(art *core.RunArtifacts) (perfrecup.ScheduleComparison, error) {
			return perfrecup.CompareSchedules(art, art)
		})},
		{"lineage", printed(func(art *core.RunArtifacts) (perfrecup.Lineage, error) {
			l, err := perfrecup.BuildLineage(art, key)
			if err != nil {
				return perfrecup.Lineage{}, err
			}
			return *l, nil
		})},
		{"whatif-model", func(art *core.RunArtifacts) (string, error) {
			m, err := art.ExtractModel()
			if err != nil {
				return "", err
			}
			return fmt.Sprintf("%+v", *m), nil
		}},
		{"scheduler-log", core.RenderSchedulerLog},
		{"worker-logs", func(art *core.RunArtifacts) (string, error) {
			workers, err := art.WorkerAddrs()
			if err != nil {
				return "", err
			}
			logs, err := core.RenderWorkerLogs(art, workers)
			return fmt.Sprint(logs), err
		}},
	}
}

// freshCopy is art with its records not yet decoded: every exported field
// copied, the decoded record set left to bind anew.
func freshCopy(art *core.RunArtifacts) *core.RunArtifacts {
	cp := new(core.RunArtifacts)
	src, dst := reflect.ValueOf(art).Elem(), reflect.ValueOf(cp).Elem()
	for i := 0; i < src.NumField(); i++ {
		if src.Type().Field(i).IsExported() {
			dst.Field(i).Set(src.Field(i))
		}
	}
	return cp
}

// TestSharedRecordsStayUnchanged runs every reader of a seeded run's records
// twice on the one memoized RunArtifacts — all of them in order, then all in
// reverse — and requires each output to be byte-identical to the same call
// on a fresh copy that decodes the run anew. The readers share the decoded
// slices, so one that sorted, appended to or edited a slice in place would
// change the output of a later reader, or its own second output. The test
// holds every topic's records throughout, so none is reclaimed and decoded
// anew between two readers.
func TestSharedRecordsStayUnchanged(t *testing.T) {
	if testing.Short() {
		t.Skip("full workflow runs")
	}
	for _, name := range seededWorkflows {
		art := seededRun(t, name)
		held := holdRecords(t, art)
		metas, err := art.Records().TaskMeta()
		if err != nil || len(metas) == 0 {
			t.Fatalf("%s: task metas: %d, %v", name, len(metas), err)
		}
		as := analyses(string(metas[len(metas)/2].Key))
		want := make([]string, len(as))
		for i, a := range as {
			if want[i], err = a.run(freshCopy(art)); err != nil {
				t.Fatalf("%s: %s on a fresh copy: %v", name, a.name, err)
			}
		}
		check := func(pass string, i int) {
			got, err := as[i].run(art)
			if err != nil {
				t.Fatalf("%s, %s, %s: %v", name, pass, as[i].name, err)
			}
			if got != want[i] {
				t.Errorf("%s, %s, %s: output differs from a fresh copy's (%d bytes, want %d)", name, pass, as[i].name, len(got), len(want[i]))
			}
		}
		for i := range as {
			check("forward", i)
		}
		for i := len(as) - 1; i >= 0; i-- {
			check("reverse", i)
		}
		runtime.KeepAlive(held)
	}
}

// holdRecords reads every topic of art's records and returns the slices, so
// a caller that keeps them keeps the decoded set alive.
func holdRecords(t *testing.T, art *core.RunArtifacts) []any {
	t.Helper()
	r := art.Records()
	var held []any
	hold := func(v any, err error) {
		if err != nil && !errors.Is(err, mofka.ErrNoTopic) {
			t.Fatal(err)
		}
		held = append(held, v)
	}
	hold(r.TaskMeta())
	hold(r.Transitions())
	hold(r.Executions())
	hold(r.Transfers())
	hold(r.Warnings())
	hold(r.Heartbeats())
	hold(r.Steals())
	hold(r.Graphs())
	hold(r.Proxy())
	hold(r.Speculation())
	return held
}
