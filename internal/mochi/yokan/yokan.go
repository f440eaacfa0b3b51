// Package yokan reimplements the document collection of Mochi's Yokan
// microservice: an append-only store with monotonically increasing IDs. A
// Mofka partition owns one and stores its events' metadata in it; the
// provenance framework reads it back at analysis time.
package yokan

import (
	"slices"
	"sync"
)

// Collection is an append-only document store with uint64 IDs assigned in
// insertion order, mirroring Yokan's document collection API. The zero value
// is an empty collection; it must not be copied once used.
type Collection struct {
	mu sync.RWMutex
	// pages holds document id in pages[id/pageSize][id%pageSize]. A page is
	// allocated whole when the first document lands in it and never moves, so
	// storing a document never copies the ones before it; only the directory
	// of page pointers grows by copying.
	pages []*[pageSize][]byte
	n     uint64
}

// pageSize is how many documents one page holds: 12 KiB of slice headers. A
// partition holding a few events pays one page; one holding tens of thousands
// pays one allocation per 512 of them.
const pageSize = 512

// StoreBatch appends documents in order and returns the first one's ID. The
// documents are not copied: the collection takes ownership, and the caller
// must not write to them afterwards. The slice holding them is the caller's
// again once StoreBatch returns.
func (c *Collection) StoreBatch(docs [][]byte) uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	first := c.n
	if need := int((c.n+uint64(len(docs))+pageSize-1)/pageSize) - len(c.pages); need > 0 {
		c.pages = slices.Grow(c.pages, need)
	}
	for len(docs) > 0 {
		i := int(c.n / pageSize)
		if i == len(c.pages) {
			c.pages = append(c.pages, new([pageSize][]byte))
		}
		k := copy(c.pages[i][c.n%pageSize:], docs)
		docs = docs[k:]
		c.n += uint64(k)
	}
	return first
}

// TruncateTo discards every document with ID >= n; the next StoreBatch
// assigns IDs starting at n again. This is the in-memory counterpart of event-log
// truncation: the replication layer uses it to drop a replica's divergent
// tail so offsets stay dense. The pages stay, for the documents stored next.
// Only a page's reference to a document is dropped; the document's bytes are
// never rewritten, so bytes Iter lent before stay as they were.
func (c *Collection) TruncateTo(n uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for ; c.n > n; c.n-- {
		id := c.n - 1
		c.pages[id/pageSize][id%pageSize] = nil
	}
}

// Iter calls fn for each document with ID >= from, in ID order, until
// fn returns false or max documents have been visited (max <= 0: no limit).
func (c *Collection) Iter(from uint64, max int, fn func(id uint64, doc []byte) bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if from >= c.n {
		return
	}
	end := c.n
	if max > 0 && uint64(max) < end-from {
		end = from + uint64(max)
	}
	for id := from; id < end; id++ {
		if !fn(id, c.pages[id/pageSize][id%pageSize]) {
			return
		}
	}
}
