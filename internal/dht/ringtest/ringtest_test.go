package ringtest

import (
	"math"
	"testing"
	"time"

	"repro/internal/can"
	"repro/internal/chord"
	"repro/internal/core"
	"repro/internal/dht"
	"repro/internal/network"
	"repro/internal/onehop"
)

// The three substrates, each under the same sweep. A future ring only
// needs a Factory here to inherit the whole suite.

func chordFactory() Factory {
	return Factory{
		Name: "chord",
		New: func(env network.Env, ep network.Endpoint, id core.ID) dht.RingNode {
			return chord.New(env, ep, id, chord.Config{
				SuccessorListLen: 6,
				StabilizeEvery:   500 * time.Millisecond,
				FixFingersEvery:  300 * time.Millisecond,
				CheckPredEvery:   500 * time.Millisecond,
				RPCTimeout:       200 * time.Millisecond,
			})
		},
		Assemble: func(nodes []dht.RingNode) {
			concrete := make([]*chord.Node, len(nodes))
			for i, n := range nodes {
				concrete[i] = n.(*chord.Node)
			}
			chord.AssembleRing(concrete)
		},
		// Iterative chord resolves in ~log2(n)/2 probes from a full
		// finger table; 2.5·log2(n) rejects linear scans with slack for
		// unlucky ID distributions.
		MaxMeanHops:        func(n int) float64 { return 2.5 * math.Log2(float64(n)) },
		SupportsNudgeMerge: true,
		LearnsArcs:         true,
	}
}

func canFactory() Factory {
	return Factory{
		Name: "can",
		New: func(env network.Env, ep network.Endpoint, id core.ID) dht.RingNode {
			return can.New(env, ep, id, can.Config{
				PingEvery:  500 * time.Millisecond,
				RPCTimeout: 200 * time.Millisecond,
			})
		},
		Assemble: func(nodes []dht.RingNode) {
			concrete := make([]*can.Node, len(nodes))
			for i, n := range nodes {
				concrete[i] = n.(*can.Node)
			}
			can.AssembleSpace(concrete)
		},
		// Greedy routing on a 2-d torus costs O(√n); 2.5·√n is the same
		// slack factor the chord bound uses.
		MaxMeanHops:        func(n int) float64 { return 2.5 * math.Sqrt(float64(n)) },
		SupportsNudgeMerge: false,
	}
}

func onehopFactory() Factory {
	return Factory{
		Name: "onehop",
		New: func(env network.Env, ep network.Endpoint, id core.ID) dht.RingNode {
			return onehop.New(env, ep, id, onehop.Config{
				PingEvery:  500 * time.Millisecond,
				RPCTimeout: 200 * time.Millisecond,
			})
		},
		Assemble: func(nodes []dht.RingNode) {
			concrete := make([]*onehop.Node, len(nodes))
			for i, n := range nodes {
				concrete[i] = n.(*onehop.Node)
			}
			onehop.AssembleRing(concrete)
		},
		// The whole point: one confirmation probe per lookup, self-owned
		// positions free. 1.1 is the issue's acceptance bound.
		MaxMeanHops:        func(n int) float64 { return 1.1 },
		SupportsNudgeMerge: true,
	}
}

func TestChordConformance(t *testing.T)  { Run(t, chordFactory()) }
func TestCANConformance(t *testing.T)    { Run(t, canFactory()) }
func TestOneHopConformance(t *testing.T) { Run(t, onehopFactory()) }
