// Package warabi reimplements the interface shape of Mochi's Warabi
// microservice: a blob store organized as targets holding fixed regions of
// raw bytes. The proxy plane (internal/proxystore) keeps its blobs here;
// events carry no payload, and their metadata lives in Yokan.
package warabi

import (
	"errors"
	"fmt"
	"sync"
)

// RegionID identifies a region within a target.
type RegionID uint64

// ErrNoRegion is returned for operations on unknown or destroyed regions.
var ErrNoRegion = errors.New("warabi: no such region")

// Target is one blob storage target. All methods are safe for concurrent
// use.
type Target struct {
	name string

	mu      sync.RWMutex
	regions map[RegionID]*region
	nextID  RegionID

	bytesWritten int64
}

type region struct {
	data []byte
}

// NewTarget creates an empty target.
func NewTarget(name string) *Target {
	return &Target{name: name, regions: make(map[RegionID]*region)}
}

// CreateWrite makes data a region. The bytes are not copied: the target
// takes ownership, and the caller must not write to them afterwards.
func (t *Target) CreateWrite(data []byte) RegionID {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := t.nextID
	t.nextID++
	t.regions[id] = &region{data: data}
	t.bytesWritten += int64(len(data))
	return id
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

// Stats reports the number of live regions and the cumulative bytes written.
func (t *Target) Stats() (regions int, written int64) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.regions), t.bytesWritten
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
