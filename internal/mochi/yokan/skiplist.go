package yokan

import "math/rand"

// skiplist is an ordered map from string keys to byte-slice values with
// O(log n) expected insert/lookup. It is not safe for concurrent use;
// Database provides the locking.
type skiplist struct {
	head  *skipnode
	level int
	rng   *rand.Rand
}

const maxLevel = 24

type skipnode struct {
	key   string
	value []byte
	next  []*skipnode
}

func newSkiplist(seed int64) *skiplist {
	return &skiplist{
		head:  &skipnode{next: make([]*skipnode, maxLevel)},
		level: 1,
		rng:   rand.New(rand.NewSource(seed)),
	}
}

func (s *skiplist) randomLevel() int {
	l := 1
	for l < maxLevel && s.rng.Intn(2) == 0 {
		l++
	}
	return l
}

// findPredecessors fills update with the rightmost node at each level whose
// key is < key, and returns the candidate node (which may equal key).
func (s *skiplist) findPredecessors(key string, update []*skipnode) *skipnode {
	x := s.head
	for i := s.level - 1; i >= 0; i-- {
		for x.next[i] != nil && x.next[i].key < key {
			x = x.next[i]
		}
		if update != nil {
			update[i] = x
		}
	}
	return x.next[0]
}

// put inserts or replaces key.
func (s *skiplist) put(key string, value []byte) {
	update := make([]*skipnode, maxLevel)
	for i := s.level; i < maxLevel; i++ {
		update[i] = s.head
	}
	n := s.findPredecessors(key, update)
	if n != nil && n.key == key {
		n.value = value
		return
	}
	lvl := s.randomLevel()
	if lvl > s.level {
		s.level = lvl
	}
	node := &skipnode{key: key, value: value, next: make([]*skipnode, lvl)}
	for i := 0; i < lvl; i++ {
		node.next[i] = update[i].next[i]
		update[i].next[i] = node
	}
}

// get returns the value for key.
func (s *skiplist) get(key string) ([]byte, bool) {
	n := s.findPredecessors(key, nil)
	if n != nil && n.key == key {
		return n.value, true
	}
	return nil, false
}
