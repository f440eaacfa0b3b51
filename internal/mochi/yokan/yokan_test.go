package yokan

import (
	"bytes"
	"fmt"
	"math/bits"
	"math/rand"
	"sort"
	"strconv"
	"sync"
	"testing"
	"testing/quick"
)

// keys lists a database's keys >= from with the prefix, in scan order.
func keys(db *Database, from, prefix string, max int) []string {
	var out []string
	for _, kv := range db.ListKeyVals(from, prefix, max) {
		out = append(out, kv.Key)
	}
	return out
}

func TestPutGetBasics(t *testing.T) {
	db := NewDatabase("test")
	db.Put("a", []byte("1"))
	db.Put("b", []byte("2"))
	if v, ok := db.Get("a"); !ok || string(v) != "1" {
		t.Fatalf("Get(a) = %q, %v", v, ok)
	}
	db.Put("a", []byte("updated"))
	if v, _ := db.Get("a"); string(v) != "updated" {
		t.Fatalf("overwrite failed: %q", v)
	}
	if n := len(keys(db, "", "", 0)); n != 2 {
		t.Fatalf("%d keys after an overwrite, want 2", n)
	}
	if _, ok := db.Get("c"); ok {
		t.Fatal("Get of an absent key succeeded")
	}
}

func TestGetReturnsCopy(t *testing.T) {
	db := NewDatabase("test")
	orig := []byte("value")
	db.Put("k", orig)
	orig[0] = 'X' // caller mutation must not affect stored value
	v, _ := db.Get("k")
	if string(v) != "value" {
		t.Fatalf("stored value aliased caller slice: %q", v)
	}
	v[0] = 'Y' // returned copy mutation must not affect store
	v2, _ := db.Get("k")
	if string(v2) != "value" {
		t.Fatalf("returned value aliased store: %q", v2)
	}
}

func TestListKeysOrderedWithPrefix(t *testing.T) {
	db := NewDatabase("test")
	for _, k := range []string{"task/3", "task/1", "io/9", "task/2", "zz"} {
		db.Put(k, []byte(k))
	}
	got := keys(db, "", "task/", 0)
	want := []string{"task/1", "task/2", "task/3"}
	if len(got) != 3 {
		t.Fatalf("keys = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("keys = %v, want %v", got, want)
		}
	}
}

func TestListKeysFromAndMax(t *testing.T) {
	db := NewDatabase("test")
	for i := 0; i < 10; i++ {
		db.Put(fmt.Sprintf("k%02d", i), nil)
	}
	got := keys(db, "k03", "", 4)
	if len(got) != 4 || got[0] != "k03" || got[3] != "k06" {
		t.Fatalf("keys(from k03, max 4) = %v", got)
	}
}

func TestListKeyVals(t *testing.T) {
	db := NewDatabase("test")
	db.Put("p/a", []byte("va"))
	db.Put("p/b", []byte("vb"))
	db.Put("q/c", []byte("vc"))
	kvs := db.ListKeyVals("", "p/", 0)
	if len(kvs) != 2 || kvs[0].Key != "p/a" || string(kvs[1].Value) != "vb" {
		t.Fatalf("ListKeyVals = %+v", kvs)
	}
}

func TestSkiplistLargeOrderedScan(t *testing.T) {
	db := NewDatabase("big")
	const n = 5000
	perm := make([]string, n)
	for i := range perm {
		perm[i] = fmt.Sprintf("key-%06d", (i*2654435761)%n) // scrambled insert order
	}
	for _, k := range perm {
		db.Put(k, []byte(k))
	}
	scan := keys(db, "", "", 0)
	if !sort.StringsAreSorted(scan) {
		t.Fatal("scan not in order")
	}
	uniq := map[string]bool{}
	for _, k := range scan {
		uniq[k] = true
	}
	if len(uniq) != n {
		t.Fatalf("scan returned %d unique keys, want %d", len(uniq), n)
	}
}

func TestCollectionIterBounds(t *testing.T) {
	c := NewDatabase("t").Collection("c")
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
	c := NewDatabase("t").Collection("c")
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
		c := NewDatabase("model").Collection("c")
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

func TestStoreOpenIsIdempotent(t *testing.T) {
	s := NewStore()
	a := s.Open("db1")
	b := s.Open("db1")
	if a != b {
		t.Fatal("Open returned distinct instances for same name")
	}
	if s.Open("db2") == a {
		t.Fatal("two names share one database")
	}
}

func TestConcurrentAccess(t *testing.T) {
	db := NewDatabase("conc")
	c := db.Collection("docs")
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := fmt.Sprintf("g%d-k%d", g, i)
				db.Put(k, []byte(k))
				if v, ok := db.Get(k); !ok || string(v) != k {
					t.Errorf("concurrent get lost %q", k)
					return
				}
				c.StoreBatch([][]byte{[]byte(k)})
			}
		}(g)
	}
	wg.Wait()
	if n := len(keys(db, "", "", 0)); n != 8*200 {
		t.Fatalf("%d keys", n)
	}
	n := 0
	c.Iter(0, 0, func(uint64, []byte) bool { n++; return true })
	if n != 8*200 {
		t.Fatalf("%d documents", n)
	}
}

// Property: the KV store behaves like a map[string][]byte with ordered scan.
func TestKVMatchesModelProperty(t *testing.T) {
	prop := func(ops []struct {
		Key string
		Val []byte
	}) bool {
		db := NewDatabase("model")
		model := map[string][]byte{}
		for _, op := range ops {
			model[op.Key] = op.Val
			db.Put(op.Key, op.Val)
		}
		scan := keys(db, "", "", 0)
		if len(scan) != len(model) {
			return false
		}
		for k, v := range model {
			got, ok := db.Get(k)
			if !ok || !bytes.Equal(got, v) {
				return false
			}
		}
		return sort.StringsAreSorted(scan)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
