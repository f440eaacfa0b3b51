package yokan

import (
	"bytes"
	"fmt"
	"math/bits"
	"math/rand"
	"strconv"
	"sync"
	"testing"
)

func TestCollectionIterBounds(t *testing.T) {
	c := new(Collection)
	docs := make([][]byte, 10)
	for i := range docs {
		docs[i] = []byte{byte(i)}
	}
	if first := c.StoreBatch(docs[:6]); first != 0 {
		t.Fatalf("first batch starts at %d", first)
	}
	if first := c.StoreBatch(docs[6:]); first != 6 {
		t.Fatalf("second batch starts at %d", first)
	}
	var ids []uint64
	c.Iter(2, 5, func(id uint64, doc []byte) bool {
		ids = append(ids, id)
		return true
	})
	want := []uint64{2, 3, 4, 5, 6}
	if len(ids) != len(want) {
		t.Fatalf("Iter ids = %v", ids)
	}
	for i := range want {
		if ids[i] != want[i] {
			t.Fatalf("Iter ids = %v, want %v", ids, want)
		}
	}
	// Early stop.
	count := 0
	c.Iter(0, 0, func(uint64, []byte) bool { count++; return count < 3 })
	if count != 3 {
		t.Fatalf("early stop visited %d", count)
	}
}

// TestLentDocumentsSurviveTruncate: bytes Iter lent keep their content
// after TruncateTo drops their documents and a StoreBatch puts others at
// the same IDs, which is what lets a decoded record borrow them.
func TestLentDocumentsSurviveTruncate(t *testing.T) {
	c := new(Collection)
	docs := make([][]byte, 2*pageSize)
	for i := range docs {
		docs[i] = []byte(fmt.Sprintf("doc-%04d", i))
	}
	c.StoreBatch(docs)
	var lent [][]byte
	c.Iter(0, 0, func(_ uint64, doc []byte) bool {
		lent = append(lent, doc)
		return true
	})
	c.TruncateTo(pageSize / 2)
	again := make([][]byte, len(docs))
	for i := range again {
		again[i] = []byte(fmt.Sprintf("new-%04d", i))
	}
	c.StoreBatch(again)
	for i, doc := range lent {
		if want := fmt.Sprintf("doc-%04d", i); string(doc) != want {
			t.Fatalf("lent document %d reads %q after truncate and re-append, want %q", i, doc, want)
		}
	}
	c.Iter(pageSize/2, 1, func(_ uint64, doc []byte) bool {
		if string(doc) != "new-0000" {
			t.Fatalf("the re-appended document reads %q", doc)
		}
		return false
	})
}

// TestCollectionMatchesSliceModelProperty: random programs of StoreBatch,
// TruncateTo and Iter, with batches, cuts and reads that cross page
// boundaries, see exactly what a plain slice of the same documents holds, and
// a truncated slot keeps no document alive.
func TestCollectionMatchesSliceModelProperty(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		// edge is a count within one document of a page boundary.
		edge := func(pages int) int { return max(0, pageSize*pages+rng.Intn(3)-1) }
		c := new(Collection)
		var model [][]byte
		stored := 0
		for op := 0; op < 40; op++ {
			switch rng.Intn(3) {
			case 0:
				n := rng.Intn(2*pageSize + 2)
				if rng.Intn(2) == 0 { // the batch ends at a page boundary
					n = edge(len(model)/pageSize+1+rng.Intn(2)) - len(model)
				}
				docs := make([][]byte, n)
				for i := range docs {
					docs[i] = []byte(strconv.Itoa(stored))
					stored++
				}
				if first := c.StoreBatch(docs); first != uint64(len(model)) {
					t.Fatalf("seed %d op %d: batch stored at %d, model holds %d", seed, op, first, len(model))
				}
				model = append(model, docs...)
			case 1:
				n := rng.Intn(len(model) + pageSize)
				if rng.Intn(2) == 0 { // the cut is at a page boundary
					n = edge(rng.Intn(len(model)/pageSize + 1))
				}
				c.TruncateTo(uint64(n))
				if n < len(model) {
					model = model[:n]
				}
			case 2:
				from := rng.Intn(len(model) + 2)
				if rng.Intn(2) == 0 {
					from = edge(rng.Intn(len(model)/pageSize + 1))
				}
				max := rng.Intn(2*pageSize+2) - 1
				stop := 1 + rng.Intn(3*pageSize)
				var got [][]byte
				c.Iter(uint64(from), max, func(id uint64, doc []byte) bool {
					if id != uint64(from+len(got)) {
						t.Fatalf("seed %d op %d: Iter visited id %d after %d documents from %d", seed, op, id, len(got), from)
					}
					got = append(got, doc)
					return len(got) < stop
				})
				var want [][]byte
				if from < len(model) {
					want = model[from:]
				}
				if max > 0 && max < len(want) {
					want = want[:max]
				}
				if stop < len(want) {
					want = want[:stop]
				}
				if len(got) != len(want) {
					t.Fatalf("seed %d op %d: Iter(%d, %d) stopping after %d visited %d documents, want %d", seed, op, from, max, stop, len(got), len(want))
				}
				for i := range want {
					if !bytes.Equal(got[i], want[i]) {
						t.Fatalf("seed %d op %d: document %d reads %q, want %q", seed, op, from+i, got[i], want[i])
					}
				}
			}
			for id := c.n; id < uint64(len(c.pages))*pageSize; id++ {
				if c.pages[id/pageSize][id%pageSize] != nil {
					t.Fatalf("seed %d op %d: slot %d past the end (%d) still holds a document", seed, op, id, c.n)
				}
			}
		}
		if c.n != uint64(len(model)) {
			t.Fatalf("seed %d: collection holds %d documents, model %d", seed, c.n, len(model))
		}
	}
}

// TestCollectionAllocatesPerPage: storing k pages of documents in one batch
// allocates the k pages and one directory; in a producer's batches of 128, the
// directory grows by doubling on top of that. No document costs an
// allocation, and none is ever copied again.
func TestCollectionAllocatesPerPage(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation pin; the race detector allocates on its own")
	}
	const k = 5
	docs := make([][]byte, k*pageSize)
	for i := range docs {
		docs[i] = []byte{byte(i)}
	}
	for _, batch := range []int{len(docs), 128} {
		const runs = 10
		fresh := make([]Collection, runs+1) // AllocsPerRun warms up once
		next := 0
		allocs := testing.AllocsPerRun(runs, func() {
			c := &fresh[next]
			next++
			for i := 0; i < len(docs); i += batch {
				c.StoreBatch(docs[i:min(i+batch, len(docs))])
			}
		})
		limit := float64(k + 1)
		if batch < pageSize {
			limit += float64(bits.Len(k))
		}
		if allocs > limit {
			t.Errorf("storing %d pages in batches of %d allocates %v times, want at most %v", k, batch, allocs, limit)
		}
	}
}

func TestConcurrentAccess(t *testing.T) {
	c := new(Collection)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := fmt.Sprintf("g%d-k%d", g, i)
				c.StoreBatch([][]byte{[]byte(k)})
			}
		}(g)
	}
	wg.Wait()
	n := 0
	c.Iter(0, 0, func(uint64, []byte) bool { n++; return true })
	if n != 8*200 {
		t.Fatalf("%d documents", n)
	}
}
