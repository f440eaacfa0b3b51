package proxystore

import (
	"fmt"
	"testing"
)

func TestPublishResolveRoundTrip(t *testing.T) {
	s := New()
	ref, replaced := s.Publish("k-1", 3, 2, 64<<20)
	if ref.Owner != 3 || ref.Incarnation != 2 || ref.Size != 64<<20 || replaced != -1 {
		t.Fatalf("ref = %+v, replaced = %d", ref, replaced)
	}
	got, ok := s.Resolve("k-1")
	if !ok || got != ref {
		t.Fatalf("resolve = %+v, %v", got, ok)
	}
	if s.ResidentBytes() != 64<<20 || s.Stats().Live != 1 {
		t.Fatalf("resident = %d, live = %d", s.ResidentBytes(), s.Stats().Live)
	}
	// The manifest region is tiny regardless of the logical payload size.
	target := s.provider.Target("worker-003")
	if regions, written := target.Stats(); regions != 1 || written > 1024 {
		t.Fatalf("manifest footprint: %d regions, %d bytes", regions, written)
	}
	if _, ok := s.Resolve("absent"); ok {
		t.Fatal("resolved an absent key")
	}
	st := s.Stats()
	if st.Publishes != 1 || st.Resolves != 1 || st.Misses != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestRefcountDrainDestroysBlob(t *testing.T) {
	s := New()
	s.Publish("k-1", 0, 0, 1<<20)
	s.Retain("k-1", 3)
	for i := 0; i < 2; i++ {
		if freed, _ := s.Release("k-1"); freed {
			t.Fatalf("freed after %d releases", i+1)
		}
	}
	freed, size := s.Release("k-1")
	if !freed || size != 1<<20 {
		t.Fatalf("final release: freed=%v size=%d", freed, size)
	}
	if s.ResidentBytes() != 0 || s.Stats().Live != 0 {
		t.Fatalf("resident = %d, live = %d", s.ResidentBytes(), s.Stats().Live)
	}
	// The backing region is gone too.
	if regions, _ := s.provider.Target("worker-000").Stats(); regions != 0 {
		t.Fatalf("leaked %d regions", regions)
	}
}

func TestReleaseNeverNegative(t *testing.T) {
	s := New()
	s.Publish("k-1", 0, 0, 100)
	// More releases than retains: the count clamps at zero and the blob is
	// destroyed exactly once; further releases are no-ops.
	if freed, _ := s.Release("k-1"); !freed {
		t.Fatal("zero-ref release did not free")
	}
	if freed, _ := s.Release("k-1"); freed {
		t.Fatal("released an absent key")
	}
	if s.Refs("k-1") != 0 {
		t.Fatalf("refs = %d", s.Refs("k-1"))
	}
	if st := s.Stats(); st.Resident != 0 {
		t.Fatalf("resident went negative or stale: %+v", st)
	}
}

func TestRetainAbsentIsNoop(t *testing.T) {
	s := New()
	s.Retain("ghost", 5)
	if s.Stats().Live != 0 || s.Refs("ghost") != 0 {
		t.Fatal("retain materialized a blob")
	}
}

func TestRepublishReplacesBlob(t *testing.T) {
	s := New()
	s.Publish("k-1", 0, 0, 100)
	s.Retain("k-1", 2)
	ref, replaced := s.Publish("k-1", 1, 3, 200) // recomputed on another worker
	if ref.Owner != 1 || ref.Size != 200 {
		t.Fatalf("ref = %+v", ref)
	}
	if replaced != 100 {
		t.Fatalf("replaced = %d, want the displaced blob's size", replaced)
	}
	if s.ResidentBytes() != 200 {
		t.Fatalf("resident = %d", s.ResidentBytes())
	}
	// The old blob's references do not carry over.
	if s.Refs("k-1") != 0 {
		t.Fatalf("refs = %d", s.Refs("k-1"))
	}
	got, ok := s.Resolve("k-1")
	if !ok || got.Owner != 1 || got.Incarnation != 3 {
		t.Fatalf("resolve = %+v, %v", got, ok)
	}
}

func TestReclaimWorker(t *testing.T) {
	s := New()
	for i := 0; i < 6; i++ {
		s.Publish(fmt.Sprintf("k-%d", i), i%2, 0, 100)
		s.Retain(fmt.Sprintf("k-%d", i), 1)
	}
	refs, bytes := s.ReclaimWorker(1)
	if len(refs) != 3 || bytes != 300 {
		t.Fatalf("reclaimed %v (%d bytes)", refs, bytes)
	}
	for i, r := range refs {
		if r.Owner != 1 || r.Size != 100 {
			t.Fatalf("reclaimed ref = %+v", r)
		}
		if i > 0 && refs[i-1].Key >= r.Key {
			t.Fatalf("reclaim refs not sorted by key: %v", refs)
		}
	}
	if s.Stats().Live != 3 || s.ResidentBytes() != 300 {
		t.Fatalf("live = %d, resident = %d", s.Stats().Live, s.ResidentBytes())
	}
	// Worker 1's blobs now miss; worker 0's still resolve.
	if _, ok := s.Resolve("k-1"); ok {
		t.Fatal("reclaimed blob resolved")
	}
	if _, ok := s.Resolve("k-0"); !ok {
		t.Fatal("surviving blob did not resolve")
	}
	if st := s.Stats(); st.Reclaims != 3 {
		t.Fatalf("stats = %+v", st)
	}
	// Reclaiming again is a no-op.
	if refs, _ := s.ReclaimWorker(1); len(refs) != 0 {
		t.Fatalf("double reclaim returned %v", refs)
	}
}

func TestKeysSorted(t *testing.T) {
	s := New()
	for _, k := range []string{"zz", "aa", "mm"} {
		s.Publish(k, 0, 0, 1)
	}
	got := s.Keys()
	if len(got) != 3 || got[0] != "aa" || got[1] != "mm" || got[2] != "zz" {
		t.Fatalf("keys = %v", got)
	}
}
