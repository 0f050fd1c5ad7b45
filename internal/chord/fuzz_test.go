package chord

import (
	"context"
	"encoding/binary"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/dht"
	"repro/internal/network"
)

// addrEP is an endpoint with an address and nothing behind it: enough
// for a node whose routing state a test sets by hand.
type addrEP network.Addr

func (a addrEP) Addr() network.Addr { return network.Addr(a) }
func (addrEP) Invoke(context.Context, network.Addr, string, network.Message, network.Call) (network.Message, error) {
	return nil, core.ErrUnreachable
}
func (addrEP) Handle(string, network.HandlerFunc) {}
func (addrEP) Close() error                       { return nil }

// bareNode is a node at self with empty routing state and no protocol.
func bareNode(self dht.NodeRef) *Node {
	return &Node{Member: dht.NewMember(nil, addrEP(self.Addr), self.ID, dht.MemberConfig{}, 0, nil)}
}

// The kinds of record a FuzzFindStep state is made of. Each record is a
// kind byte followed by one 8-byte big-endian ID, two for a learned arc;
// a finger record's slot is its kind byte's upper bits.
const (
	recPred byte = iota
	recSucc
	recFinger
	recLearned
	recExclude
	recKinds
)

// rec encodes one routing-state record for FuzzFindStep's seeds.
func rec(kind byte, ids ...uint64) []byte {
	out := []byte{kind}
	for _, id := range ids {
		out = binary.BigEndian.AppendUint64(out, id)
	}
	return out
}

// FuzzFindStep feeds the routing handler arbitrary routing state — a
// predecessor, successors, fingers and learned arcs, none of them
// required to agree — with an arbitrary target and exclude list, and
// checks the invariant every walk rests on. A step either ends the walk
// on the handler's own successor pointer (Done, naming its first
// successor the caller has not excluded, itself when none is left), or
// names a Next that lies strictly in (self, target), is not excluded and
// is a peer the handler holds. So a learned peer can be asked next but
// is never the answer, and since each Next is strictly closer to the
// target a walk cannot cycle. Every reply carries the handler's
// predecessor.
func FuzzFindStep(f *testing.F) {
	// The twelve-peer ring of TestLookupRoutesThroughLearnedPeers as 100
	// sees it, with (900, 1000] learned: ask 1000 next.
	hundred := slices.Concat(rec(recPred, 1200), rec(recSucc, 200), rec(recSucc, 300), rec(recSucc, 400),
		rec(recFinger, 200), rec(recFinger|7<<3, 300), rec(recFinger|9<<3, 700), rec(recLearned, 900, 1000))
	f.Add(uint64(100), uint64(1050), hundred)
	f.Add(uint64(100), uint64(250), hundred) // answered by the successor list
	// The same with 1000 excluded: its arc's start, 900, is asked.
	f.Add(uint64(100), uint64(1050), slices.Concat(hundred, rec(recExclude, 1000)))
	// Every successor excluded: Done names the handler itself.
	f.Add(uint64(5), uint64(3), slices.Concat(rec(recSucc, 9), rec(recExclude, 9)))
	// An arc wrapping through zero, and a learned end equal to self.
	f.Add(^uint64(0)-10, uint64(20), slices.Concat(rec(recSucc, ^uint64(0)-5),
		rec(recLearned, ^uint64(0)-10, 10), rec(recLearned, 10, 15)))
	f.Add(uint64(0), uint64(0), []byte{})

	f.Fuzz(func(t *testing.T, self, target uint64, state []byte) {
		n := bareNode(ref(core.ID(self)))
		exclude := map[core.ID]bool{}
		next := func() (core.ID, bool) {
			if len(state) < 8 {
				return 0, false
			}
			id := core.ID(binary.BigEndian.Uint64(state))
			state = state[8:]
			return id, true
		}
		for len(state) > 0 {
			kind := state[0]
			state = state[1:]
			id, ok := next()
			if !ok {
				break
			}
			switch kind % recKinds {
			case recPred:
				n.pred = ref(id)
			case recSucc:
				n.succs = append(n.succs, ref(id))
			case recFinger:
				n.fingers[int(kind>>3)%M] = ref(id)
			case recLearned:
				owner, ok := next()
				if !ok || len(n.learned.arcs) == learnedCap {
					break
				}
				n.learned.arcs = append(n.learned.arcs, learnedArc{from: ref(id), owner: ref(owner)})
			case recExclude:
				exclude[id] = true
			}
		}
		held := map[dht.NodeRef]bool{}
		for _, r := range slices.Concat(n.succs, n.fingers[:]) {
			held[r] = true
		}
		for _, a := range n.learned.arcs {
			held[a.from], held[a.owner] = true, true
		}
		to := core.ID(target)

		resp := n.findStep(to, exclude)
		if resp.Pred != n.pred {
			t.Fatalf("reply carries predecessor %v, the handler holds %v", resp.Pred, n.pred)
		}
		if resp.Done {
			want := n.Self()
			for _, s := range n.succs {
				if !exclude[s.ID] {
					want = s
					break
				}
			}
			if resp.Next != want {
				t.Fatalf("Done names %v, the first successor not excluded is %v", resp.Next, want)
			}
			return
		}
		switch nx := resp.Next; {
		case !held[nx]:
			t.Fatalf("Next %v is no peer the handler holds", nx)
		case exclude[nx.ID]:
			t.Fatalf("Next %v was excluded", nx)
		case !nx.ID.InOpenInterval(n.Self().ID, to) || nx.ID == n.Self().ID:
			t.Fatalf("Next %v does not lie strictly in (%s, %s)", nx, n.Self().ID, to)
		}
	})
}
