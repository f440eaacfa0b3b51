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
	data []byte
}

// NewTarget creates an empty target.
func NewTarget(name string) *Target {
	return &Target{name: name, regions: make(map[RegionID]*region)}
}

// CreateWrite allocates a region exactly fitting data and writes it: one
// region per event batch.
func (t *Target) CreateWrite(data []byte) RegionID {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := t.nextID
	t.nextID++
	t.regions[id] = &region{data: append([]byte(nil), data...)}
	t.bytesWritten += int64(len(data))
	return id
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
