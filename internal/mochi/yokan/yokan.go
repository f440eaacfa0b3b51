// Package yokan reimplements the interface shape of Mochi's Yokan
// microservice: named databases holding an ordered key/value space plus
// document collections with monotonically increasing IDs. Mofka stores event
// metadata and topic configuration in Yokan; the provenance framework reads
// it back at analysis time.
package yokan

import (
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

// KeyValue is a key with its value, as returned by ListKeyVals.
type KeyValue struct {
	Key   string
	Value []byte
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

// Collection is an append-only document store with uint64 IDs assigned in
// insertion order, mirroring Yokan's document collection API.
type Collection struct {
	name string
	mu   sync.RWMutex
	docs [][]byte
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

// TruncateTo discards every document with ID >= n; the next StoreBatch
// assigns IDs starting at n again. This is the in-memory counterpart of event-log
// truncation: the replication layer uses it to drop a replica's divergent
// tail so offsets stay dense.
func (c *Collection) TruncateTo(n uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if n < uint64(len(c.docs)) {
		c.docs = c.docs[:n]
	}
}

// Iter calls fn for each document with ID >= from, in ID order, until
// fn returns false or max documents have been visited (max <= 0: no limit).
func (c *Collection) Iter(from uint64, max int, fn func(id uint64, doc []byte) bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	visited := 0
	for id := from; id < uint64(len(c.docs)); id++ {
		if !fn(id, c.docs[id]) {
			return
		}
		visited++
		if max > 0 && visited >= max {
			return
		}
	}
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
