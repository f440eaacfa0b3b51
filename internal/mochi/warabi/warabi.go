// Package warabi reimplements the interface shape of Mochi's Warabi
// microservice: a blob store organized as targets holding fixed regions of
// raw bytes. Mofka stores event data payloads in Warabi regions while event
// metadata lives in Yokan.
package warabi

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
)

// RegionID identifies a region within a target.
type RegionID uint64

// ErrNoRegion is returned for operations on unknown or destroyed regions.
var ErrNoRegion = errors.New("warabi: no such region")

// ErrOutOfBounds is returned when an access exceeds a region's size.
var ErrOutOfBounds = errors.New("warabi: access out of region bounds")

// Target is one blob storage target. All methods are safe for concurrent
// use.
type Target struct {
	name string

	mu      sync.RWMutex
	regions map[RegionID]*region
	nextID  RegionID

	bytesWritten int64
	bytesRead    atomic.Int64 // bumped by readers holding only the read lock
}

type region struct {
	data      []byte
	persisted bool
}

// NewTarget creates an empty target.
func NewTarget(name string) *Target {
	return &Target{name: name, regions: make(map[RegionID]*region)}
}

// Name returns the target's diagnostic name.
func (t *Target) Name() string { return t.name }

// Create allocates a region of the given size and returns its ID.
func (t *Target) Create(size int64) RegionID {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := t.nextID
	t.nextID++
	t.regions[id] = &region{data: make([]byte, size)}
	return id
}

// CreateWrite allocates a region exactly fitting data, writes it, and marks
// it persisted. This is the fast path Mofka uses for event batches.
func (t *Target) CreateWrite(data []byte) RegionID {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := t.nextID
	t.nextID++
	t.regions[id] = &region{data: append([]byte(nil), data...), persisted: true}
	t.bytesWritten += int64(len(data))
	return id
}

// Write copies data into the region at offset.
func (t *Target) Write(id RegionID, offset int64, data []byte) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	r, ok := t.regions[id]
	if !ok {
		return fmt.Errorf("%w: %d", ErrNoRegion, id)
	}
	if offset < 0 || offset+int64(len(data)) > int64(len(r.data)) {
		return fmt.Errorf("%w: write [%d,%d) in region of %d", ErrOutOfBounds, offset, offset+int64(len(data)), len(r.data))
	}
	copy(r.data[offset:], data)
	t.bytesWritten += int64(len(data))
	return nil
}

// Read returns size bytes of the region starting at offset.
func (t *Target) Read(id RegionID, offset, size int64) ([]byte, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	r, ok := t.regions[id]
	if !ok {
		return nil, fmt.Errorf("%w: %d", ErrNoRegion, id)
	}
	if offset < 0 || offset+size > int64(len(r.data)) {
		return nil, fmt.Errorf("%w: read [%d,%d) in region of %d", ErrOutOfBounds, offset, offset+size, len(r.data))
	}
	t.bytesRead.Add(size)
	return append([]byte(nil), r.data[offset:offset+size]...), nil
}

// ReadAll returns the region's full contents.
func (t *Target) ReadAll(id RegionID) ([]byte, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	r, ok := t.regions[id]
	if !ok {
		return nil, fmt.Errorf("%w: %d", ErrNoRegion, id)
	}
	t.bytesRead.Add(int64(len(r.data)))
	return append([]byte(nil), r.data...), nil
}

// Persist marks the region durable (a no-op flush in this in-memory model,
// but tracked so tests can assert the producer's flush discipline).
func (t *Target) Persist(id RegionID) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	r, ok := t.regions[id]
	if !ok {
		return fmt.Errorf("%w: %d", ErrNoRegion, id)
	}
	r.persisted = true
	return nil
}

// Persisted reports whether the region has been persisted.
func (t *Target) Persisted(id RegionID) (bool, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	r, ok := t.regions[id]
	if !ok {
		return false, fmt.Errorf("%w: %d", ErrNoRegion, id)
	}
	return r.persisted, nil
}

// Destroy releases the region.
func (t *Target) Destroy(id RegionID) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, ok := t.regions[id]; !ok {
		return fmt.Errorf("%w: %d", ErrNoRegion, id)
	}
	delete(t.regions, id)
	return nil
}

// Size returns a region's size in bytes.
func (t *Target) Size(id RegionID) (int64, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	r, ok := t.regions[id]
	if !ok {
		return 0, fmt.Errorf("%w: %d", ErrNoRegion, id)
	}
	return int64(len(r.data)), nil
}

// Stats reports the number of live regions and cumulative bytes moved.
func (t *Target) Stats() (regions int, written, read int64) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.regions), t.bytesWritten, t.bytesRead.Load()
}

// Provider manages a set of named targets, like a Warabi provider.
type Provider struct {
	mu      sync.Mutex
	targets map[string]*Target
}

// NewProvider creates an empty provider.
func NewProvider() *Provider { return &Provider{targets: make(map[string]*Target)} }

// Target returns the named target, creating it on first use.
func (p *Provider) Target(name string) *Target {
	p.mu.Lock()
	defer p.mu.Unlock()
	t, ok := p.targets[name]
	if !ok {
		t = NewTarget(name)
		p.targets[name] = t
	}
	return t
}

// Names lists existing targets.
func (p *Provider) Names() []string {
	p.mu.Lock()
	defer p.mu.Unlock()
	var out []string
	for n := range p.targets {
		out = append(out, n)
	}
	return out
}
