// Package yokan reimplements the interface shape of Mochi's Yokan
// microservice: named databases holding an ordered key/value space plus
// document collections with monotonically increasing IDs. Mofka stores event
// metadata and topic configuration in Yokan; the provenance framework reads
// it back at analysis time.
package yokan

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"io"
	"strings"
	"sync"
)

// Database is one ordered key/value space with named document collections.
// All methods are safe for concurrent use.
type Database struct {
	name string

	mu          sync.RWMutex
	kv          *skiplist
	collections map[string]*Collection
}

// NewDatabase creates an empty database. The name is diagnostic.
func NewDatabase(name string) *Database {
	return &Database{
		name:        name,
		kv:          newSkiplist(int64(len(name)) + 42),
		collections: make(map[string]*Collection),
	}
}

// Name returns the database name.
func (db *Database) Name() string { return db.name }

// Put stores value under key, replacing any existing value. The value slice
// is copied.
func (db *Database) Put(key string, value []byte) {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.kv.put(key, append([]byte(nil), value...))
}

// Get returns the value for key.
func (db *Database) Get(key string) ([]byte, bool) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	v, ok := db.kv.get(key)
	if !ok {
		return nil, false
	}
	return append([]byte(nil), v...), true
}

// Exists reports whether key is present.
func (db *Database) Exists(key string) bool {
	db.mu.RLock()
	defer db.mu.RUnlock()
	_, ok := db.kv.get(key)
	return ok
}

// Erase removes key, reporting whether it existed.
func (db *Database) Erase(key string) bool {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.kv.del(key)
}

// Count returns the number of keys.
func (db *Database) Count() int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.kv.size
}

// KeyValue is a key with its value, as returned by ListKeyVals.
type KeyValue struct {
	Key   string
	Value []byte
}

// ListKeys returns up to max keys >= from that start with prefix, in order.
// max <= 0 means no limit.
func (db *Database) ListKeys(from, prefix string, max int) []string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	var out []string
	for n := db.kv.seek(from); n != nil; n = n.next[0] {
		if prefix != "" && !strings.HasPrefix(n.key, prefix) {
			if n.key > prefix {
				break // keys are ordered; we are past the prefix range
			}
			continue // still before the prefix range
		}
		out = append(out, n.key)
		if max > 0 && len(out) >= max {
			break
		}
	}
	return out
}

// ListKeyVals returns up to max key/value pairs >= from with the given
// prefix, in key order. Values are copies.
func (db *Database) ListKeyVals(from, prefix string, max int) []KeyValue {
	db.mu.RLock()
	defer db.mu.RUnlock()
	var out []KeyValue
	for n := db.kv.seek(from); n != nil; n = n.next[0] {
		if prefix != "" && !strings.HasPrefix(n.key, prefix) {
			if n.key > prefix {
				break
			}
			continue
		}
		out = append(out, KeyValue{Key: n.key, Value: append([]byte(nil), n.value...)})
		if max > 0 && len(out) >= max {
			break
		}
	}
	return out
}

// Collection returns the named document collection, creating it on first
// use.
func (db *Database) Collection(name string) *Collection {
	db.mu.Lock()
	defer db.mu.Unlock()
	c, ok := db.collections[name]
	if !ok {
		c = &Collection{name: name}
		db.collections[name] = c
	}
	return c
}

// CollectionNames lists the existing collections.
func (db *Database) CollectionNames() []string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	var out []string
	for n := range db.collections {
		out = append(out, n)
	}
	return out
}

// Collection is an append-mostly document store with uint64 IDs assigned in
// insertion order, mirroring Yokan's document collection API.
type Collection struct {
	name string
	mu   sync.RWMutex
	docs [][]byte // nil entry = erased
}

// Name returns the collection name.
func (c *Collection) Name() string { return c.name }

// Store appends a document and returns its ID. The document is copied.
func (c *Collection) Store(doc []byte) uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.docs = append(c.docs, append([]byte(nil), doc...))
	return uint64(len(c.docs) - 1)
}

// StoreBatch appends documents in order and returns the first one's ID. The
// documents are not copied: the collection takes ownership, and the caller
// must not write to them afterwards.
func (c *Collection) StoreBatch(docs [][]byte) uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	first := uint64(len(c.docs))
	c.docs = append(c.docs, docs...)
	return first
}

// Load returns document id.
func (c *Collection) Load(id uint64) ([]byte, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if id >= uint64(len(c.docs)) || c.docs[id] == nil {
		return nil, false
	}
	return append([]byte(nil), c.docs[id]...), true
}

// Update replaces document id, reporting whether it existed.
func (c *Collection) Update(id uint64, doc []byte) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if id >= uint64(len(c.docs)) || c.docs[id] == nil {
		return false
	}
	c.docs[id] = append([]byte(nil), doc...)
	return true
}

// Erase tombstones document id.
func (c *Collection) Erase(id uint64) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if id >= uint64(len(c.docs)) || c.docs[id] == nil {
		return false
	}
	c.docs[id] = nil
	return true
}

// TruncateTo discards every document with ID >= n; subsequent Stores assign
// IDs starting at n again. This is the in-memory counterpart of event-log
// truncation: the replication layer uses it to drop a replica's divergent
// tail so offsets stay dense.
func (c *Collection) TruncateTo(n uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if n < uint64(len(c.docs)) {
		c.docs = c.docs[:n]
	}
}

// Size returns the number of live documents.
func (c *Collection) Size() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	n := 0
	for _, d := range c.docs {
		if d != nil {
			n++
		}
	}
	return n
}

// LastID returns the highest assigned ID and whether any document was ever
// stored.
func (c *Collection) LastID() (uint64, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if len(c.docs) == 0 {
		return 0, false
	}
	return uint64(len(c.docs) - 1), true
}

// Iter calls fn for each live document with ID >= from, in ID order, until
// fn returns false or max documents have been visited (max <= 0: no limit).
func (c *Collection) Iter(from uint64, max int, fn func(id uint64, doc []byte) bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	visited := 0
	for id := from; id < uint64(len(c.docs)); id++ {
		if c.docs[id] == nil {
			continue
		}
		if !fn(id, c.docs[id]) {
			return
		}
		visited++
		if max > 0 && visited >= max {
			return
		}
	}
}

// ---- persistence ----

type snapshot struct {
	Name        string
	Keys        []string
	Values      [][]byte
	Collections map[string][][]byte
}

// Snapshot serializes the database (keys, values, collections) to w.
func (db *Database) Snapshot(w io.Writer) error {
	db.mu.RLock()
	snap := snapshot{Name: db.name, Collections: make(map[string][][]byte)}
	for n := db.kv.first(); n != nil; n = n.next[0] {
		snap.Keys = append(snap.Keys, n.key)
		snap.Values = append(snap.Values, n.value)
	}
	for name, c := range db.collections {
		c.mu.RLock()
		snap.Collections[name] = append([][]byte(nil), c.docs...)
		c.mu.RUnlock()
	}
	db.mu.RUnlock()
	return gob.NewEncoder(w).Encode(&snap)
}

// Restore loads a database previously written by Snapshot.
func Restore(r io.Reader) (*Database, error) {
	var snap snapshot
	if err := gob.NewDecoder(r).Decode(&snap); err != nil {
		return nil, fmt.Errorf("yokan: restore: %w", err)
	}
	db := NewDatabase(snap.Name)
	for i, k := range snap.Keys {
		db.kv.put(k, snap.Values[i])
	}
	for name, docs := range snap.Collections {
		db.collections[name] = &Collection{name: name, docs: docs}
	}
	return db, nil
}

// Equal reports whether two databases hold identical KV contents (used by
// tests and by replication checks).
func Equal(a, b *Database) bool {
	a.mu.RLock()
	defer a.mu.RUnlock()
	b.mu.RLock()
	defer b.mu.RUnlock()
	if a.kv.size != b.kv.size {
		return false
	}
	na, nb := a.kv.first(), b.kv.first()
	for na != nil && nb != nil {
		if na.key != nb.key || !bytes.Equal(na.value, nb.value) {
			return false
		}
		na, nb = na.next[0], nb.next[0]
	}
	return na == nil && nb == nil
}

// Store manages a namespace of databases, like a Yokan provider managing
// multiple backends.
type Store struct {
	mu  sync.Mutex
	dbs map[string]*Database
}

// NewStore creates an empty provider.
func NewStore() *Store { return &Store{dbs: make(map[string]*Database)} }

// Open returns the named database, creating it on first use.
func (s *Store) Open(name string) *Database {
	s.mu.Lock()
	defer s.mu.Unlock()
	db, ok := s.dbs[name]
	if !ok {
		db = NewDatabase(name)
		s.dbs[name] = db
	}
	return db
}

// Names lists the open databases.
func (s *Store) Names() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []string
	for n := range s.dbs {
		out = append(out, n)
	}
	return out
}

// Drop removes the named database.
func (s *Store) Drop(name string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.dbs, name)
}
