package perfrecup

import (
	"fmt"
	"sort"
	"strings"

	"taskprov/internal/core"
	"taskprov/internal/dask"
	"taskprov/internal/provenance"
)

// Lineage is the full provenance record of one task (Fig. 8): identity,
// dependencies, every state transition with location and timestamp, the
// execution placement, data movements of its result, and the high-fidelity
// I/O records attributed to it.
type Lineage struct {
	Key     string
	Prefix  string
	Group   string
	GraphID int
	Deps    []string

	SubmittedAt float64

	States []LineageState

	Worker     string
	Hostname   string
	ThreadID   uint64
	Start      float64
	Stop       float64
	OutputSize int64

	Movements []LineageMove
	IO        []LineageIO

	Steals []string
}

// LineageState is one captured transition.
type LineageState struct {
	From, To, Stimulus, Location string
	At                           float64
}

// LineageMove is one movement of the task's result between workers.
type LineageMove struct {
	From, To string
	Bytes    int64
	At       float64
	SameNode bool
}

// LineageIO is one POSIX operation issued by the task.
type LineageIO struct {
	Mount  string
	Path   string
	Op     string
	Offset int64
	Bytes  int64
	Start  float64
	End    float64
}

// BuildLineage assembles the provenance summary of key from a run's
// artifacts, fusing the Mofka streams with the Darshan trace exactly as the
// paper's Fig. 8 does. The placement is the key's winning execution
// (provenance.TaskTable).
func BuildLineage(art *core.RunArtifacts, key string) (*Lineage, error) {
	l := &Lineage{Key: key, Prefix: dask.KeyPrefix(dask.TaskKey(key)), Group: dask.KeyGroup(dask.TaskKey(key))}

	tab, err := provenance.Tasks(art.Records())
	if err != nil {
		return nil, err
	}
	id, ok := tab.ID[key]
	if !ok || tab.Meta[id] < 0 {
		return nil, fmt.Errorf("perfrecup: task %q not found in run %s", key, art.Meta.JobID)
	}
	tm := &tab.Metas[tab.Meta[id]]
	l.GraphID = tm.GraphID
	l.SubmittedAt = tm.At.Seconds()
	for _, d := range tm.Deps {
		l.Deps = append(l.Deps, string(d))
	}
	if j := tab.Exec[id]; j >= 0 {
		e := &tab.Execs[j]
		l.Worker = e.Worker
		l.Hostname = e.Hostname
		l.ThreadID = e.ThreadID
		l.Start = e.Start.Seconds()
		l.Stop = e.Stop.Seconds()
		l.OutputSize = e.OutputSize
	}

	trans, err := art.Records().Transitions()
	if err != nil {
		return nil, err
	}
	for _, t := range trans {
		if string(t.Key) == key {
			l.States = append(l.States, LineageState{
				From: string(t.From), To: string(t.To),
				Stimulus: t.Stimulus, Location: t.Location, At: t.At.Seconds(),
			})
		}
	}
	sort.Slice(l.States, func(a, b int) bool { return l.States[a].At < l.States[b].At })

	transfers, err := art.Records().Transfers()
	if err != nil {
		return nil, err
	}
	for _, t := range transfers {
		if string(t.Key) == key {
			l.Movements = append(l.Movements, LineageMove{
				From: t.From, To: t.To, Bytes: t.Bytes,
				At: t.Stop.Seconds(), SameNode: t.SameNode,
			})
		}
	}

	steals, err := art.Records().Steals()
	if err != nil {
		return nil, err
	}
	for _, s := range steals {
		if string(s.Key) == key {
			l.Steals = append(l.Steals, fmt.Sprintf("%s -> %s @ %.3fs", s.Victim, s.Thief, s.At.Seconds()))
		}
	}

	// I/O records: DXT segments on the task's (hostname, thread) that start
	// within its execution window — the predicate of the (hostname, pthread,
	// time) join (provenance.ThreadWindows), so a task's lineage lists
	// exactly the segments AttributeIOToTasks gives it. (Asking the segment
	// to end inside the window too loses a task's last write when the two
	// float seconds round a nanosecond apart.)
	mount := art.Meta.Storage.Name
	for _, dl := range art.DarshanLogs {
		if dl.Job.Hostname != l.Hostname {
			continue
		}
		for _, rec := range dl.Records {
			for _, s := range rec.DXT {
				if s.TID == l.ThreadID && s.Start >= l.Start && s.Start <= l.Stop {
					l.IO = append(l.IO, LineageIO{
						Mount: mount, Path: rec.Path, Op: s.Op.String(),
						Offset: s.Offset, Bytes: s.Length, Start: s.Start, End: s.End,
					})
				}
			}
		}
	}
	sort.Slice(l.IO, func(a, b int) bool { return l.IO[a].Start < l.IO[b].Start })
	return l, nil
}

// Render formats the lineage as an indented provenance summary, in the
// spirit of the paper's Fig. 8.
func (l *Lineage) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "task %s\n", l.Key)
	fmt.Fprintf(&b, "├─ prefix: %s\n", l.Prefix)
	fmt.Fprintf(&b, "├─ group: %s\n", l.Group)
	fmt.Fprintf(&b, "├─ graph: %d (submitted %.3fs)\n", l.GraphID, l.SubmittedAt)
	fmt.Fprintf(&b, "├─ dependencies: %d\n", len(l.Deps))
	for i, d := range l.Deps {
		if i == 4 && len(l.Deps) > 5 {
			fmt.Fprintf(&b, "│   └─ … %d more\n", len(l.Deps)-4)
			break
		}
		fmt.Fprintf(&b, "│   ├─ %s\n", d)
	}
	fmt.Fprintf(&b, "├─ states:\n")
	for _, s := range l.States {
		fmt.Fprintf(&b, "│   ├─ %s→%s (%s) @ %.6fs on %s\n", s.From, s.To, s.Stimulus, s.At, s.Location)
	}
	fmt.Fprintf(&b, "├─ executed on %s (%s) thread %d, [%.6fs, %.6fs], output %d bytes\n",
		l.Worker, l.Hostname, l.ThreadID, l.Start, l.Stop, l.OutputSize)
	if len(l.Steals) > 0 {
		fmt.Fprintf(&b, "├─ work stealing:\n")
		for _, s := range l.Steals {
			fmt.Fprintf(&b, "│   ├─ %s\n", s)
		}
	}
	if len(l.Movements) > 0 {
		fmt.Fprintf(&b, "├─ result movements:\n")
		for _, m := range l.Movements {
			loc := "inter-node"
			if m.SameNode {
				loc = "intra-node"
			}
			fmt.Fprintf(&b, "│   ├─ %s → %s, %d bytes @ %.6fs (%s)\n", m.From, m.To, m.Bytes, m.At, loc)
		}
	}
	fmt.Fprintf(&b, "└─ I/O records (%d):\n", len(l.IO))
	for _, io := range l.IO {
		fmt.Fprintf(&b, "    ├─ PFS %s %s %s off=%d len=%d [%.6fs, %.6fs]\n",
			io.Mount, io.Op, io.Path, io.Offset, io.Bytes, io.Start, io.End)
	}
	return b.String()
}
