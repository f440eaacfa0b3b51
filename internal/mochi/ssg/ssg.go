// Package ssg reimplements the interface shape of Mochi's SSG (scalable
// service groups) component: named process groups with membership, heartbeat
// liveness, and observer notifications on join/leave/failure. The simulated
// Dask scheduler keeps its workers in a group and evicts the ones the group
// declares dead.
//
// Liveness is driven by an explicit clock (Sweep) rather than wall-clock
// timers so the component is deterministic under test and usable from the
// simulation.
package ssg

import (
	"sort"
	"sync"
	"time"
)

// MemberID identifies a member within a group.
type MemberID uint64

// State is a member's liveness state.
type State int

// Member liveness states.
const (
	Alive State = iota
	Suspect
	Dead
)

// Member is one process in a group.
type Member struct {
	ID       MemberID
	Address  string
	State    State
	JoinedAt time.Time
	LastSeen time.Time
}

// EventKind classifies membership notifications.
type EventKind int

// Membership notification kinds.
const (
	EventJoin EventKind = iota
	EventLeave
	EventSuspect
	EventFail
	EventRejoin
)

// Event is a membership change notification.
type Event struct {
	Kind   EventKind
	Member Member
}

// Observer receives membership events. Callbacks run synchronously under the
// group's lock-free snapshot; they must not call back into the group.
type Observer func(Event)

// Config tunes failure detection.
type Config struct {
	SuspectAfter time.Duration // no heartbeat for this long: Suspect
	DeadAfter    time.Duration // no heartbeat for this long: Dead
}

// Group is a named membership group. All methods are safe for concurrent
// use.
type Group struct {
	name string
	cfg  Config

	mu        sync.Mutex
	members   map[MemberID]*Member
	nextID    MemberID
	observers []Observer
}

// defaultSuspectAfter mirrors SSG's SWIM-ish default at a small scale.
const defaultSuspectAfter = 2 * time.Second

// NewGroup creates an empty group.
func NewGroup(name string, cfg Config) *Group {
	if cfg.SuspectAfter <= 0 {
		cfg.SuspectAfter = defaultSuspectAfter
	}
	if cfg.DeadAfter <= cfg.SuspectAfter {
		cfg.DeadAfter = cfg.SuspectAfter * 2
	}
	return &Group{name: name, cfg: cfg, members: make(map[MemberID]*Member)}
}

// Observe registers an observer for membership events.
func (g *Group) Observe(o Observer) {
	g.mu.Lock()
	g.observers = append(g.observers, o)
	g.mu.Unlock()
}

// notify must be called without holding g.mu.
func (g *Group) notify(obs []Observer, ev Event) {
	for _, o := range obs {
		o(ev)
	}
}

// Join adds a member at address and returns its ID. now is the join time.
func (g *Group) Join(address string, now time.Time) MemberID {
	g.mu.Lock()
	id := g.nextID
	g.nextID++
	m := &Member{ID: id, Address: address, State: Alive, JoinedAt: now, LastSeen: now}
	g.members[id] = m
	obs := append([]Observer(nil), g.observers...)
	ev := Event{Kind: EventJoin, Member: *m}
	g.mu.Unlock()
	g.notify(obs, ev)
	return id
}

// Leave removes a member gracefully.
func (g *Group) Leave(id MemberID) bool {
	g.mu.Lock()
	m, ok := g.members[id]
	if !ok {
		g.mu.Unlock()
		return false
	}
	delete(g.members, id)
	obs := append([]Observer(nil), g.observers...)
	ev := Event{Kind: EventLeave, Member: *m}
	g.mu.Unlock()
	g.notify(obs, ev)
	return true
}

// Heartbeat records liveness for a member at time now. A heartbeat from a
// Suspect member revives it (EventRejoin); heartbeats from Dead members are
// ignored (they must re-Join).
func (g *Group) Heartbeat(id MemberID, now time.Time) bool {
	g.mu.Lock()
	m, ok := g.members[id]
	if !ok || m.State == Dead {
		g.mu.Unlock()
		return false
	}
	revived := m.State == Suspect
	m.State = Alive
	m.LastSeen = now
	var obs []Observer
	var ev Event
	if revived {
		obs = append([]Observer(nil), g.observers...)
		ev = Event{Kind: EventRejoin, Member: *m}
	}
	g.mu.Unlock()
	if revived {
		g.notify(obs, ev)
	}
	return true
}

// Sweep advances failure detection to time now, transitioning silent members
// to Suspect and then Dead, and returns the number of state changes.
func (g *Group) Sweep(now time.Time) int {
	g.mu.Lock()
	var events []Event
	for _, m := range g.members {
		silent := now.Sub(m.LastSeen)
		switch {
		case m.State == Alive && silent >= g.cfg.SuspectAfter && silent < g.cfg.DeadAfter:
			m.State = Suspect
			events = append(events, Event{Kind: EventSuspect, Member: *m})
		case m.State != Dead && silent >= g.cfg.DeadAfter:
			m.State = Dead
			events = append(events, Event{Kind: EventFail, Member: *m})
		}
	}
	obs := append([]Observer(nil), g.observers...)
	g.mu.Unlock()
	// Map iteration order is random; notify in member-ID order so sweeps are
	// deterministic (simulation replays depend on a stable event sequence).
	sort.Slice(events, func(i, j int) bool { return events[i].Member.ID < events[j].Member.ID })
	for _, ev := range events {
		g.notify(obs, ev)
	}
	return len(events)
}
