package cluster

import (
	"fmt"
	"hash/fnv"
	"sort"
)

// Partition placement uses rendezvous (highest-random-weight) hashing: every
// (topic, partition, node) triple hashes to a weight, and the partition's
// replica set is the top ReplicationFactor nodes by weight, in weight order.
// The first entry is the preferred leader. Properties the cluster leans on:
//
//   - Deterministic: placement is a pure function of the triple, so every
//     process — and every rerun of a simulation — computes the same layout
//     without a placement service or any coordination.
//   - Balanced: weights are independent hashes, so partitions spread evenly
//     across nodes in expectation.
//
// Ties (astronomically unlikely with 64-bit FNV, but the simulation demands
// total determinism) break toward the lower node id.

// rendezvousWeight hashes one (topic, partition, node) triple.
func rendezvousWeight(topic string, part, node int) uint64 {
	h := fnv.New64a()
	_, _ = fmt.Fprintf(h, "%s|%d|%d", topic, part, node) // hash writes cannot fail
	return h.Sum64()
}

// rendezvousRank returns all node ids [0,nodes) sorted by descending weight
// for (topic, part).
func rendezvousRank(topic string, part, nodes int) []int {
	type wn struct {
		w uint64
		n int
	}
	ws := make([]wn, nodes)
	for n := 0; n < nodes; n++ {
		ws[n] = wn{rendezvousWeight(topic, part, n), n}
	}
	sort.Slice(ws, func(i, j int) bool {
		if ws[i].w != ws[j].w {
			return ws[i].w > ws[j].w
		}
		return ws[i].n < ws[j].n
	})
	out := make([]int, nodes)
	for i, w := range ws {
		out[i] = w.n
	}
	return out
}

// replicaSet returns the top-rf replica node ids for (topic, part) across
// nodes members, preferred leader first.
func replicaSet(topic string, part, nodes, rf int) []int {
	if rf > nodes {
		rf = nodes
	}
	return rendezvousRank(topic, part, nodes)[:rf]
}
