package core

import (
	"fmt"
	"sync"
	"time"

	"taskprov/internal/mofka"
	"taskprov/internal/provenance"
)

// InSituMonitor is the paper's in situ consumption mode: an analysis
// consumer that runs in tandem with the instrumented workflow, pulling
// provenance events from Mofka as they are produced and maintaining running
// statistics. Because event streams are persistent, the monitor sees
// exactly the same records a post-mortem analysis would — it just sees them
// earlier ("workflow execution and in situ analysis can each proceed at
// their own pace", §III-B).
type InSituMonitor struct {
	broker *mofka.Broker

	mu     sync.Mutex
	counts map[string]int64
	warn   map[string]int64
	maxDur float64
	maxKey string

	stop chan struct{}
	done sync.WaitGroup
}

// NewInSituMonitor starts one consumer goroutine per provenance topic on
// the broker (topics are created if absent so the monitor can start before
// the collector). Call Stop to drain and finish.
func NewInSituMonitor(broker *mofka.Broker) (*InSituMonitor, error) {
	m := &InSituMonitor{
		broker: broker,
		counts: make(map[string]int64),
		warn:   make(map[string]int64),
		stop:   make(chan struct{}),
	}
	for _, name := range AllTopics() {
		t, err := broker.OpenOrCreateTopic(mofka.TopicConfig{Name: name, Partitions: 2})
		if err != nil {
			return nil, err
		}
		c, err := t.NewConsumer(mofka.ConsumerOptions{Name: "insitu", NoData: true})
		if err != nil {
			return nil, err
		}
		m.done.Add(1)
		go m.consume(name, c)
	}
	return m, nil
}

func (m *InSituMonitor) consume(topic string, c *mofka.Consumer) {
	defer m.done.Done()
	for {
		ev, ok, err := c.PullBlocking(50 * time.Millisecond)
		if err != nil {
			return
		}
		if !ok {
			select {
			case <-m.stop:
				// Final drain: the producer has flushed; consume whatever
				// remains, then exit.
				for {
					ev, ok, err := c.Pull()
					if err != nil || !ok {
						return
					}
					m.observe(topic, ev)
				}
			default:
				continue
			}
		} else {
			m.observe(topic, ev)
		}
	}
}

func (m *InSituMonitor) observe(topic string, ev mofka.Event) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.counts[topic]++
	switch topic {
	case TopicWarnings:
		if w, err := provenance.DecodeWarning(ev.Metadata); err == nil {
			m.warn[string(w.Kind)]++
		}
	case TopicExecutions:
		if e, err := provenance.DecodeExecution(ev.Metadata); err == nil {
			if d := e.Stop.Seconds() - e.Start.Seconds(); d > m.maxDur {
				m.maxDur = d
				m.maxKey = string(e.Key)
			}
		}
	}
}

// Stop drains the remaining events and stops the consumer goroutines.
func (m *InSituMonitor) Stop() {
	close(m.stop)
	m.done.Wait()
}

// EventCount returns the number of events observed on a topic so far.
func (m *InSituMonitor) EventCount(topic string) int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.counts[topic]
}

// WarningCount returns the occurrences of one warning kind so far.
func (m *InSituMonitor) WarningCount(kind string) int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.warn[kind]
}

// LongestTask returns the slowest execution seen so far.
func (m *InSituMonitor) LongestTask() (key string, seconds float64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.maxKey, m.maxDur
}

// Snapshot renders the running statistics.
func (m *InSituMonitor) Snapshot() string {
	m.mu.Lock()
	defer m.mu.Unlock()
	s := "in-situ monitor:\n"
	for _, t := range AllTopics() {
		s += fmt.Sprintf("  %-18s %d events\n", t, m.counts[t])
	}
	if m.maxKey != "" {
		s += fmt.Sprintf("  longest task so far: %s (%.3fs)\n", m.maxKey, m.maxDur)
	}
	return s
}
