package chaos

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"taskprov/internal/sim"
)

func TestParseKill(t *testing.T) {
	p, err := Parse("kill worker=3 at=2m restart=1m")
	if err != nil {
		t.Fatal(err)
	}
	want := Kill{Worker: 3, At: 2 * time.Minute, Restart: time.Minute}
	if len(p.Kills) != 1 || p.Kills[0] != want {
		t.Fatalf("got %+v", p.Kills)
	}
}

func TestParseMultiStatement(t *testing.T) {
	p, err := Parse("kill worker=0 at=10s; slow worker=1 at=2s factor=6; wal topic=warnings partition=1")
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Kills) != 1 || len(p.Slows) != 1 || len(p.WALs) != 1 {
		t.Fatalf("got %+v", p)
	}
	if f := p.Slows[0]; f.Worker != 1 || f.At != 2*time.Second || f.Factor != 6 {
		t.Fatalf("slow fault %+v", f)
	}
	if f := p.WALs[0]; f.Topic != "warnings" || f.Partition != 1 || f.Count != 1 {
		t.Fatalf("wal fault %+v", f)
	}
}

func TestParseEmpty(t *testing.T) {
	for _, spec := range []string{"", "   ", " ; ; "} {
		p, err := Parse(spec)
		if err != nil {
			t.Fatalf("%q: %v", spec, err)
		}
		if !reflect.DeepEqual(*p, Plan{Spec: p.Spec}) {
			t.Fatalf("%q: expected empty plan, got %+v", spec, p)
		}
	}
}

func TestParseErrors(t *testing.T) {
	for _, spec := range []string{
		"boom worker=1 at=2s",         // unknown directive
		"kill at=2s",                  // missing worker
		"kill worker=1",               // missing at
		"kill worker=1 at=2s bogus=x", // unknown field
		"kill worker=1 at=2s at=3s",   // duplicate field
		"kill worker=one at=2s",       // malformed int
		"kill worker=1 at=fast",       // malformed duration
		"kill worker",                 // not key=value
		"wal count=-1",                // non-positive count
	} {
		if _, err := Parse(spec); err == nil {
			t.Errorf("%q: expected error", spec)
		}
	}
}

func TestParseRoundTripSpec(t *testing.T) {
	p, err := Parse("  kill worker=1 at=5s ")
	if err != nil {
		t.Fatal(err)
	}
	if p.Spec != "kill worker=1 at=5s" {
		t.Fatalf("spec %q", p.Spec)
	}
}

type fakeCluster struct {
	kills    []int
	restarts []int
}

func (f *fakeCluster) KillWorker(rank int)    { f.kills = append(f.kills, rank) }
func (f *fakeCluster) RestartWorker(rank int) { f.restarts = append(f.restarts, rank) }

func TestArmWorkerFaults(t *testing.T) {
	p, err := Parse("kill worker=2 at=5s restart=3s; kill worker=0 at=1s")
	if err != nil {
		t.Fatal(err)
	}
	k := sim.NewKernel(1)
	cl := &fakeCluster{}
	if err := NewController(p).ArmWorkerFaults(k, cl, 4); err != nil {
		t.Fatal(err)
	}
	k.Run()
	if len(cl.kills) != 2 || cl.kills[0] != 0 || cl.kills[1] != 2 {
		t.Fatalf("kills %v", cl.kills)
	}
	if len(cl.restarts) != 1 || cl.restarts[0] != 2 {
		t.Fatalf("restarts %v", cl.restarts)
	}
}

func TestArmWorkerFaultsValidatesRank(t *testing.T) {
	p, _ := Parse("kill worker=8 at=5s")
	if err := NewController(p).ArmWorkerFaults(sim.NewKernel(1), &fakeCluster{}, 8); err == nil {
		t.Fatal("expected rank-out-of-range error")
	}
}

type fakeBroker struct{ hook func(string, int) error }

func (f *fakeBroker) SetAppendFault(fn func(string, int) error) { f.hook = fn }

func TestArmBroker(t *testing.T) {
	p, err := Parse("wal topic=warnings partition=0 after=1 count=1")
	if err != nil {
		t.Fatal(err)
	}
	b := &fakeBroker{}
	NewController(p).ArmBroker(b)
	if b.hook == nil {
		t.Fatal("hook not installed")
	}
	if err := b.hook("warnings", 1); err != nil {
		t.Fatalf("partition mismatch should pass: %v", err)
	}
	if err := b.hook("warnings", 0); err != nil {
		t.Fatalf("after=1 first matching call should pass: %v", err)
	}
	if err := b.hook("warnings", 0); err == nil {
		t.Fatal("second matching call should fault")
	}
	if err := b.hook("warnings", 0); err != nil {
		t.Fatalf("count exhausted, should pass: %v", err)
	}
	if err := b.hook("executions", 0); err != nil {
		t.Fatalf("topic mismatch should pass: %v", err)
	}
}

func TestEmptyPlanArmsNothing(t *testing.T) {
	b := &fakeBroker{}
	NewController(nil).ArmBroker(b)
	if b.hook != nil {
		t.Fatal("empty plan should not install a broker hook")
	}
}

func TestParseSchedulerKill(t *testing.T) {
	p, err := Parse("scheduler at=90s; scheduler at-task=readzarr-a1b2")
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Schedulers) != 2 {
		t.Fatalf("got %+v", p.Schedulers)
	}
	if sk := p.Schedulers[0]; sk.At != 90*time.Second || sk.AtTask != "" {
		t.Fatalf("time-triggered kill %+v", sk)
	}
	if sk := p.Schedulers[1]; sk.At != 0 || sk.AtTask != "readzarr-a1b2" {
		t.Fatalf("task-triggered kill %+v", sk)
	}
}

func TestParseSchedulerKillErrors(t *testing.T) {
	for _, spec := range []string{
		"scheduler",                  // neither trigger
		"scheduler at=5s at-task=k1", // both triggers
		"scheduler at=0s",            // non-positive time
		"scheduler at=fast",          // malformed duration
		"scheduler at=5s worker=1",   // unknown field
	} {
		if _, err := Parse(spec); err == nil {
			t.Errorf("%q: expected error", spec)
		}
	}
}

func TestArmSchedulerFaults(t *testing.T) {
	p, err := Parse("scheduler at=5s; scheduler at=9s; scheduler at-task=k1")
	if err != nil {
		t.Fatal(err)
	}
	c := NewController(p)
	k := sim.NewKernel(1)
	var fired []SchedulerKill
	c.ArmSchedulerFaults(k, func(sk SchedulerKill) { fired = append(fired, sk) })
	k.Run()
	// Both time-triggered kills fire (crash must be idempotent); the
	// task-triggered one is left to the session's execution stream.
	if len(fired) != 2 || fired[0].At != 5*time.Second || fired[1].At != 9*time.Second {
		t.Fatalf("fired %+v", fired)
	}
	if tt := c.TaskTriggeredSchedulerKills(); len(tt) != 1 || tt[0].AtTask != "k1" {
		t.Fatalf("task-triggered %+v", tt)
	}
}

func TestArmSchedulerFaultsSkipsPastKills(t *testing.T) {
	p, err := Parse("scheduler at=5s")
	if err != nil {
		t.Fatal(err)
	}
	k := sim.NewKernel(1)
	k.RunUntil(10 * sim.Seconds(1))
	var fired []SchedulerKill
	NewController(p).ArmSchedulerFaults(k, func(sk SchedulerKill) { fired = append(fired, sk) })
	k.Run()
	// A resumed session re-arms the original spec with its clock already
	// past the kill time: the stale kill must not fire again.
	if len(fired) != 0 {
		t.Fatalf("fired %+v", fired)
	}
}

// TestParseEveryDirective round-trips one statement per grammar directive and
// checks every parsed field. The covered set is compared against the parser's
// dispatch table, so adding a directive without extending this test fails it.
func TestParseEveryDirective(t *testing.T) {
	cases := map[string]struct {
		spec  string
		check func(t *testing.T, p *Plan)
	}{
		"kill": {
			spec: "kill worker=3 at=2m restart=1m",
			check: func(t *testing.T, p *Plan) {
				want := Kill{Worker: 3, At: 2 * time.Minute, Restart: time.Minute}
				if len(p.Kills) != 1 || p.Kills[0] != want {
					t.Fatalf("kills %+v", p.Kills)
				}
			},
		},
		"broker": {
			spec: "broker node=1 at=30s restart=10s",
			check: func(t *testing.T, p *Plan) {
				want := BrokerKill{Node: 1, At: 30 * time.Second, Restart: 10 * time.Second}
				if len(p.Brokers) != 1 || p.Brokers[0] != want {
					t.Fatalf("brokers %+v", p.Brokers)
				}
			},
		},
		"scheduler": {
			spec: "scheduler at-task=sum-0042",
			check: func(t *testing.T, p *Plan) {
				want := SchedulerKill{AtTask: "sum-0042"}
				if len(p.Schedulers) != 1 || p.Schedulers[0] != want {
					t.Fatalf("schedulers %+v", p.Schedulers)
				}
			},
		},
		"wal": {
			spec: "wal topic=executions partition=2 after=7 count=3",
			check: func(t *testing.T, p *Plan) {
				want := WALFault{Topic: "executions", Partition: 2, After: 7, Count: 3}
				if len(p.WALs) != 1 || p.WALs[0] != want {
					t.Fatalf("wals %+v", p.WALs)
				}
			},
		},
		"slow": {
			spec: "slow worker=2 at=1m factor=8 until=30s",
			check: func(t *testing.T, p *Plan) {
				want := Slow{Worker: 2, At: time.Minute, Factor: 8, Until: 30 * time.Second}
				if len(p.Slows) != 1 || p.Slows[0] != want {
					t.Fatalf("slows %+v", p.Slows)
				}
			},
		},
		"net": {
			spec: "net src=0 dst=1 factor=4 at=20s until=40s",
			check: func(t *testing.T, p *Plan) {
				want := NetFault{Src: 0, Dst: 1, Factor: 4, At: 20 * time.Second, Until: 40 * time.Second}
				if len(p.Nets) != 1 || p.Nets[0] != want {
					t.Fatalf("nets %+v", p.Nets)
				}
			},
		},
	}
	for name := range directives {
		if _, ok := cases[name]; !ok {
			t.Errorf("directive %q has no round-trip case — extend this test", name)
		}
	}
	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			if _, ok := directives[name]; !ok {
				t.Fatalf("case %q is not a parser directive", name)
			}
			p, err := Parse(tc.spec)
			if err != nil {
				t.Fatal(err)
			}
			tc.check(t, p)
			if p.Spec != tc.spec {
				t.Fatalf("spec round-trip: %q != %q", p.Spec, tc.spec)
			}
		})
	}
}

// TestUnknownDirectiveListsAll checks the dispatch-table error advertises
// every directive, so the grammar's inventory cannot silently drift. "rpc"
// was a directive no program ever armed: a spec that still carries it must be
// refused the same way, not accepted and ignored.
func TestUnknownDirectiveListsAll(t *testing.T) {
	for _, spec := range []string{"explode worker=1 at=2s", "rpc op=drop", "kill worker=1 at=2s; rpc op=error count=1000"} {
		_, err := Parse(spec)
		if err == nil {
			t.Fatalf("%q: expected unknown-directive error", spec)
		}
		for name := range directives {
			if !strings.Contains(err.Error(), name) {
				t.Errorf("%q: error %q does not mention directive %q", spec, err, name)
			}
		}
	}
}

func TestParseSlowNetErrors(t *testing.T) {
	for _, spec := range []string{
		"slow at=5s factor=2",             // missing worker
		"slow worker=1 factor=2",          // missing at
		"slow worker=1 at=5s",             // missing factor
		"slow worker=1 at=5s factor=1",    // factor must exceed 1
		"slow worker=1 at=5s factor=0.5",  // factor must exceed 1
		"net dst=1 factor=2",              // missing src
		"net src=0 factor=2",              // missing dst
		"net src=0 dst=1",                 // missing factor
		"net src=0 dst=1 factor=1",        // factor must exceed 1
		"net src=0 dst=1 factor=2 op=bad", // unknown field
	} {
		if _, err := Parse(spec); err == nil {
			t.Errorf("%q: expected error", spec)
		}
	}
}

type fakeSlower struct {
	events []string
}

func (f *fakeSlower) SlowWorker(rank int, factor float64) {
	f.events = append(f.events, fmt.Sprintf("slow %d x%g", rank, factor))
}
func (f *fakeSlower) ClearSlowdown(rank int) {
	f.events = append(f.events, fmt.Sprintf("clear %d", rank))
}

func TestArmSlowdowns(t *testing.T) {
	p, err := Parse("slow worker=2 at=5s factor=8 until=3s; slow worker=0 at=1s factor=2")
	if err != nil {
		t.Fatal(err)
	}
	k := sim.NewKernel(1)
	sl := &fakeSlower{}
	if err := NewController(p).ArmSlowdowns(k, sl, 4); err != nil {
		t.Fatal(err)
	}
	k.Run()
	want := []string{"slow 0 x2", "slow 2 x8", "clear 2"}
	if len(sl.events) != len(want) {
		t.Fatalf("events %v", sl.events)
	}
	for i := range want {
		if sl.events[i] != want[i] {
			t.Fatalf("events %v, want %v", sl.events, want)
		}
	}
}

func TestArmSlowdownsValidatesRank(t *testing.T) {
	p, _ := Parse("slow worker=4 at=5s factor=2")
	if err := NewController(p).ArmSlowdowns(sim.NewKernel(1), &fakeSlower{}, 4); err == nil {
		t.Fatal("expected rank-out-of-range error")
	}
}

type fakeNet struct {
	events []string
}

func (f *fakeNet) SetLinkFactor(src, dst int, factor float64) {
	f.events = append(f.events, fmt.Sprintf("%d->%d x%g", src, dst, factor))
}

func TestArmLinkFaults(t *testing.T) {
	p, err := Parse("net src=0 dst=1 factor=4 at=5s until=3s; net src=1 dst=0 factor=2")
	if err != nil {
		t.Fatal(err)
	}
	k := sim.NewKernel(1)
	n := &fakeNet{}
	if err := NewController(p).ArmLinkFaults(k, n, 2); err != nil {
		t.Fatal(err)
	}
	// The onset-less fault degrades immediately, before the kernel runs.
	if len(n.events) != 1 || n.events[0] != "1->0 x2" {
		t.Fatalf("pre-run events %v", n.events)
	}
	k.Run()
	want := []string{"1->0 x2", "0->1 x4", "0->1 x1"}
	if len(n.events) != len(want) {
		t.Fatalf("events %v", n.events)
	}
	for i := range want {
		if n.events[i] != want[i] {
			t.Fatalf("events %v, want %v", n.events, want)
		}
	}
}

func TestArmLinkFaultsValidatesNodes(t *testing.T) {
	p, _ := Parse("net src=0 dst=2 factor=2")
	if err := NewController(p).ArmLinkFaults(sim.NewKernel(1), &fakeNet{}, 2); err == nil {
		t.Fatal("expected node-out-of-range error")
	}
}
