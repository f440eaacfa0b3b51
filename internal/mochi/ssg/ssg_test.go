package ssg

import (
	"sync"
	"testing"
	"time"
)

var t0 = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

func cfg() Config {
	return Config{SuspectAfter: 2 * time.Second, DeadAfter: 5 * time.Second}
}

// lookup returns the member with the given ID from a Members snapshot.
func lookup(g *Group, id MemberID) (Member, bool) {
	for _, m := range g.Members() {
		if m.ID == id {
			return m, true
		}
	}
	return Member{}, false
}

func TestJoinLeaveMembership(t *testing.T) {
	g := NewGroup("workers", cfg())
	a := g.Join("node0:1234", t0)
	b := g.Join("node1:1234", t0)
	if a == b {
		t.Fatal("duplicate member IDs")
	}
	if n := len(g.Members()); n != 2 {
		t.Fatalf("%d members", n)
	}
	if !g.Leave(a) || g.Leave(a) {
		t.Fatal("Leave semantics wrong")
	}
	ms := g.Members()
	if len(ms) != 1 || ms[0].ID != b {
		t.Fatalf("Members = %+v", ms)
	}
}

func TestHeartbeatKeepsAlive(t *testing.T) {
	g := NewGroup("g", cfg())
	id := g.Join("n0", t0)
	g.Heartbeat(id, t0.Add(1*time.Second))
	g.Sweep(t0.Add(2500 * time.Millisecond)) // 1.5s silent < SuspectAfter
	m, _ := lookup(g, id)
	if m.State != Alive {
		t.Fatalf("state = %v, want alive", m.State)
	}
}

func TestSuspectThenDead(t *testing.T) {
	g := NewGroup("g", cfg())
	id := g.Join("n0", t0)
	var events []Event
	g.Observe(func(e Event) { events = append(events, e) })

	if n := g.Sweep(t0.Add(3 * time.Second)); n != 1 {
		t.Fatalf("first sweep changes = %d", n)
	}
	if m, _ := lookup(g, id); m.State != Suspect {
		t.Fatalf("state = %v, want suspect", m.State)
	}
	if n := g.Sweep(t0.Add(6 * time.Second)); n != 1 {
		t.Fatalf("second sweep changes = %d", n)
	}
	if m, _ := lookup(g, id); m.State != Dead {
		t.Fatalf("state = %v, want dead", m.State)
	}
	if len(events) != 2 || events[0].Kind != EventSuspect || events[1].Kind != EventFail {
		t.Fatalf("events = %+v", events)
	}
}

func TestAliveStraightToDead(t *testing.T) {
	g := NewGroup("g", cfg())
	id := g.Join("n0", t0)
	g.Sweep(t0.Add(10 * time.Second))
	if m, _ := lookup(g, id); m.State != Dead {
		t.Fatalf("long-silent member state = %v, want dead", m.State)
	}
}

func TestSuspectRevivesOnHeartbeat(t *testing.T) {
	g := NewGroup("g", cfg())
	id := g.Join("n0", t0)
	var rejoins int
	g.Observe(func(e Event) {
		if e.Kind == EventRejoin {
			rejoins++
		}
	})
	g.Sweep(t0.Add(3 * time.Second))
	if !g.Heartbeat(id, t0.Add(3500*time.Millisecond)) {
		t.Fatal("heartbeat rejected for suspect member")
	}
	if m, _ := lookup(g, id); m.State != Alive {
		t.Fatalf("state = %v after revival", m.State)
	}
	if rejoins != 1 {
		t.Fatalf("rejoin events = %d", rejoins)
	}
}

func TestDeadMemberHeartbeatIgnored(t *testing.T) {
	g := NewGroup("g", cfg())
	id := g.Join("n0", t0)
	g.Sweep(t0.Add(10 * time.Second))
	if g.Heartbeat(id, t0.Add(11*time.Second)) {
		t.Fatal("dead member heartbeat accepted")
	}
}

func TestObserverSeesJoinLeave(t *testing.T) {
	g := NewGroup("g", cfg())
	var kinds []EventKind
	g.Observe(func(e Event) { kinds = append(kinds, e.Kind) })
	id := g.Join("n0", t0)
	g.Leave(id)
	if len(kinds) != 2 || kinds[0] != EventJoin || kinds[1] != EventLeave {
		t.Fatalf("kinds = %v", kinds)
	}
}

func TestConfigValidation(t *testing.T) {
	g := NewGroup("g", Config{})
	id := g.Join("n0", t0)
	// Defaults should apply: not dead instantly.
	g.Sweep(t0.Add(time.Millisecond))
	if m, _ := lookup(g, id); m.State != Alive {
		t.Fatalf("instant sweep changed state to %v", m.State)
	}
}

func TestConcurrentHeartbeats(t *testing.T) {
	g := NewGroup("g", cfg())
	ids := make([]MemberID, 16)
	for i := range ids {
		ids[i] = g.Join("n", t0)
	}
	var wg sync.WaitGroup
	for _, id := range ids {
		wg.Add(1)
		go func(id MemberID) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				g.Heartbeat(id, t0.Add(time.Duration(i)*time.Millisecond))
			}
		}(id)
	}
	done := make(chan struct{})
	go func() {
		for i := 0; i < 50; i++ {
			g.Sweep(t0.Add(time.Duration(i) * time.Millisecond))
		}
		close(done)
	}()
	wg.Wait()
	<-done
	for _, m := range g.Members() {
		if m.State != Alive {
			t.Fatalf("member %d is %v, want alive", m.ID, m.State)
		}
	}
	if n := len(g.Members()); n != 16 {
		t.Fatalf("%d members, want 16", n)
	}
}
