package provenance

import "testing"

func TestThreadWindowsFind(t *testing.T) {
	var w ThreadWindows
	// Added out of order; two threads of one host and one of another.
	w.Add("nid1", 7, 5, 8, 2)
	w.Add("nid1", 7, 1, 3, 1)
	w.Add("nid1", 7, 8, 9, 3) // starts where the one before stops
	w.Add("nid1", 9, 0, 10, 4)
	w.Add("nid2", 7, 0, 10, 5)
	for _, c := range []struct {
		host string
		tid  uint64
		at   float64
		ref  int
		ok   bool
	}{
		{"nid1", 7, 0.5, 0, false}, // before the first window
		{"nid1", 7, 1, 1, true},    // both ends are inside
		{"nid1", 7, 3, 1, true},
		{"nid1", 7, 4, 0, false}, // in the gap
		{"nid1", 7, 6, 2, true},
		{"nid1", 7, 8, 3, true}, // a shared instant goes to the later window
		{"nid1", 7, 9.5, 0, false},
		{"nid1", 9, 6, 4, true},
		{"nid2", 7, 6, 5, true},
		{"nid3", 7, 6, 0, false},
	} {
		ref, ok := w.Find(c.host, c.tid, c.at)
		if ref != c.ref || ok != c.ok {
			t.Errorf("Find(%s, %d, %v) = %d, %v, want %d, %v", c.host, c.tid, c.at, ref, ok, c.ref, c.ok)
		}
	}
	// An Add after a Find is indexed too.
	w.Add("nid1", 7, 3.5, 4.5, 6)
	if ref, ok := w.Find("nid1", 7, 4); !ok || ref != 6 {
		t.Errorf("window added after a Find: %d, %v", ref, ok)
	}
	var empty ThreadWindows
	if _, ok := empty.Find("nid1", 7, 1); ok {
		t.Error("empty index found a window")
	}
}
