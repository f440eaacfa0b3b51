package yokan

import (
	"bytes"
	"fmt"
	"sort"
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
