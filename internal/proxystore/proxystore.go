// Package proxystore is a pass-by-reference object store for dependency
// transfers, layered on the Warabi blob service (the ProxyStore pattern of
// Pauloski et al. applied to the simulated Dask data plane): task outputs
// above a size threshold are published once as reference-counted blobs owned
// by the producing worker, the scheduler ships only a small proxy reference
// in its control messages, and consumers resolve the payload peer-to-peer
// from the owner at first use.
//
// The store tracks blob metadata — ownership, incarnation fencing, logical
// payload size, and reference counts — while the simulation moves sizes, not
// bytes: each blob's Warabi region holds a small JSON manifest describing
// the payload rather than the payload itself, so multi-gigabyte logical
// outputs cost a few hundred real bytes. Reference counts mirror the
// scheduler's dependent refcounts; when a blob's count drains (or its owner
// worker is reclaimed after a crash) the region is destroyed and the
// resident footprint shrinks back.
package proxystore

import (
	"encoding/json"
	"fmt"
	"sort"
	"sync"

	"taskprov/internal/mochi/warabi"
)

// Ref is the proxy reference the scheduler ships in place of a payload: it
// names the blob and pins the owner incarnation so a consumer can detect a
// dangling reference to a crashed producer.
type Ref struct {
	Key         string `json:"key"`
	Owner       int    `json:"owner"` // producing worker rank
	Incarnation int    `json:"incarnation"`
	Size        int64  `json:"size"` // logical payload bytes
}

// Stats is a snapshot of cumulative store activity.
type Stats struct {
	Publishes int64 // blobs published (including republish after recompute)
	Resolves  int64 // successful reference resolutions
	Misses    int64 // resolutions of absent/reclaimed blobs
	Releases  int64 // individual reference releases
	Frees     int64 // blobs destroyed by refcount drain or explicit free
	Reclaims  int64 // blobs dropped because their owner worker died
	Resident  int64 // current logical bytes held across live blobs
	Live      int   // current live blob count
}

type blob struct {
	ref    Ref
	target *warabi.Target
	region warabi.RegionID
	refs   int
}

// Store is the blob index. All methods are safe for concurrent use, though
// the deterministic simulation drives it from a single kernel goroutine.
type Store struct {
	provider *warabi.Provider

	mu    sync.Mutex
	blobs map[string]*blob
	stats Stats
}

// New builds an empty store over its own Warabi provider (one target per
// owning worker, mirroring a per-node Warabi deployment).
func New() *Store {
	return &Store{provider: warabi.NewProvider(), blobs: make(map[string]*blob)}
}

// Publish registers key's payload as a blob owned by worker rank owner at
// the given incarnation, replacing any previous blob for the key (a
// recomputed key republishes under its new producer). The returned Ref is
// what the scheduler ships to consumers; replaced is the size of the blob
// this publish displaced (-1 when the key was fresh). The new blob starts
// with zero references; the scheduler Retains it to mirror its dependent
// refcounts.
func (s *Store) Publish(key string, owner, incarnation int, size int64) (r Ref, replaced int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	replaced = -1
	if old, ok := s.blobs[key]; ok {
		replaced = old.ref.Size
		s.destroyLocked(key, old)
		s.stats.Frees++
	}
	ref := Ref{Key: key, Owner: owner, Incarnation: incarnation, Size: size}
	manifest, err := json.Marshal(ref)
	if err != nil {
		// Ref is a plain struct of strings and integers; this cannot fail.
		panic(fmt.Sprintf("proxystore: encode manifest for %s: %v", key, err))
	}
	target := s.provider.Target(fmt.Sprintf("worker-%03d", owner))
	b := &blob{ref: ref, target: target, region: target.CreateWrite(manifest)}
	s.blobs[key] = b
	s.stats.Publishes++
	s.stats.Resident += size
	return ref, replaced
}

// Lookup inspects key's blob without touching the hit/miss counters (the
// fencing checks of speculative execution must not distort resolve
// statistics). Returns the blob's ref and whether one exists.
func (s *Store) Lookup(key string) (Ref, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	b, ok := s.blobs[key]
	if !ok {
		return Ref{}, false
	}
	return b.ref, true
}

// Resolve looks a reference up by key, counting a hit or a miss. A miss
// means the blob was reclaimed (its owner died) or never published.
func (s *Store) Resolve(key string) (Ref, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	b, ok := s.blobs[key]
	if !ok {
		s.stats.Misses++
		return Ref{}, false
	}
	s.stats.Resolves++
	return b.ref, true
}

// Refs reports a blob's current reference count (0 when absent).
func (s *Store) Refs(key string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	if b, ok := s.blobs[key]; ok {
		return b.refs
	}
	return 0
}

// Retain adds n references to key's blob. A no-op for absent keys (the
// scheduler may retain a key whose blob was already reclaimed; the
// subsequent resolution miss drives recomputation).
func (s *Store) Retain(key string, n int) {
	if n <= 0 {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if b, ok := s.blobs[key]; ok {
		b.refs += n
	}
}

// Release drops one reference from key's blob, destroying it when the count
// drains to zero. Releasing an absent key is a no-op and a blob's count
// never goes negative. Reports the blob's size and whether this release
// freed it.
func (s *Store) Release(key string) (freed bool, size int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	b, ok := s.blobs[key]
	if !ok {
		return false, 0
	}
	s.stats.Releases++
	if b.refs > 0 {
		b.refs--
	}
	if b.refs > 0 {
		return false, b.ref.Size
	}
	s.destroyLocked(key, b)
	s.stats.Frees++
	return true, b.ref.Size
}

// Free destroys key's blob regardless of its reference count (the scheduler
// free-keys path, which already knows no dependent remains). Reports whether
// a blob existed and its size.
func (s *Store) Free(key string) (freed bool, size int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	b, ok := s.blobs[key]
	if !ok {
		return false, 0
	}
	s.destroyLocked(key, b)
	s.stats.Frees++
	return true, b.ref.Size
}

// ReclaimWorker drops every blob owned by the given worker rank — the
// crash-reclamation sweep run when the scheduler evicts a dead worker. The
// reclaimed refs are returned sorted by key (deterministic provenance),
// along with the total logical bytes released.
func (s *Store) ReclaimWorker(owner int) (reclaimed []Ref, bytes int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var keys []string
	for key, b := range s.blobs {
		if b.ref.Owner == owner {
			keys = append(keys, key)
		}
	}
	sort.Strings(keys)
	for _, key := range keys {
		b := s.blobs[key]
		reclaimed = append(reclaimed, b.ref)
		bytes += b.ref.Size
		s.destroyLocked(key, b)
		s.stats.Reclaims++
	}
	return reclaimed, bytes
}

// destroyLocked removes a blob and its manifest region. Callers hold s.mu.
func (s *Store) destroyLocked(key string, b *blob) {
	delete(s.blobs, key)
	s.stats.Resident -= b.ref.Size
	if err := b.target.Destroy(b.region); err != nil {
		// The store is the region's only owner; a missing region means the
		// index and the target diverged — a bug, not a runtime condition.
		panic(fmt.Sprintf("proxystore: destroy region for %s: %v", key, err))
	}
}

// ResidentBytes reports the logical payload bytes currently held.
func (s *Store) ResidentBytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats.Resident
}

// Keys returns the live blob keys in sorted order.
func (s *Store) Keys() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, len(s.blobs))
	for k := range s.blobs {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Stats returns a snapshot of cumulative counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.Live = len(s.blobs)
	return st
}
