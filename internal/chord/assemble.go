package chord

import (
	"sort"

	"repro/internal/core"
	"repro/internal/dht"
)

// AssembleRing wires a set of fresh nodes into a perfect ring
// administratively: exact predecessors, successor lists and finger
// tables, with no protocol traffic. Large simulations start from an
// assembled ring (building 10,000 peers by sequential joins would
// dominate the experiment), then churn exercises the real join/leave/fail
// paths — the same methodology the paper's simulator uses.
func AssembleRing(nodes []*Node) {
	if len(nodes) == 0 {
		return
	}
	sorted := make([]*Node, len(nodes))
	copy(sorted, nodes)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Self().ID < sorted[j].Self().ID })

	n := len(sorted)
	refs := make([]dht.NodeRef, n)
	for i, nd := range sorted {
		refs[i] = nd.Self()
	}

	// successorOf returns the first node whose ID >= id (wrapping).
	successorOf := func(id core.ID) dht.NodeRef {
		lo := sort.Search(n, func(i int) bool { return refs[i].ID >= id })
		if lo == n {
			lo = 0
		}
		return refs[lo]
	}

	for i, nd := range sorted {
		nd.mu.Lock()
		nd.setPredLocked(refs[(i-1+n)%n])
		listLen := nd.cfg.SuccessorListLen
		succs := make([]dht.NodeRef, 0, listLen)
		for j := 1; j <= listLen && j < n+1; j++ {
			succs = append(succs, refs[(i+j)%n])
		}
		if len(succs) == 0 {
			succs = []dht.NodeRef{nd.Self()}
		}
		nd.setSuccessorsLocked(succs)
		for b := 0; b < M; b++ {
			target := nd.Self().ID + core.ID(uint64(1)<<uint(b))
			nd.fingers[b] = successorOf(target)
		}
		nd.mu.Unlock()
	}
}
