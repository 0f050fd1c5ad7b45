package peer

import (
	"context"
	"encoding/binary"
	"testing"
	"time"

	"repro/internal/can"
	"repro/internal/chord"
	"repro/internal/core"
	"repro/internal/dht"
	"repro/internal/kts"
	"repro/internal/network"
	"repro/internal/network/simwire"
	"repro/internal/onehop"
	"repro/internal/simnet"
	"repro/internal/store"
)

// requestFrame is the body of a TCP request frame: the method and the
// caller as wire strings, then the message in the wire codec.
func requestFrame(method string, req network.Message) []byte {
	b := network.AppendString(nil, method)
	b = network.AppendString(b, "fuzz")
	b, err := network.AppendMessage(b, req)
	if err != nil {
		panic(err)
	}
	return b
}

// cutRequest inverts requestFrame. The caller is dropped: the simulated
// transport names the sender itself.
func cutRequest(b []byte) (method string, req network.Message, err error) {
	if method, b, err = network.CutString(b); err != nil {
		return "", nil, err
	}
	if _, b, err = network.CutString(b); err != nil {
		return "", nil, err
	}
	req, err = network.DecodeMessage(b)
	return method, req, err
}

// request is one method and a request for it.
type request struct {
	method string
	req    network.Message
}

// methodTable pairs every method a peer serves with a well-formed
// request for it.
func methodTable() []request {
	ref := dht.NodeRef{ID: 7, Addr: "sim-gone"}
	val := core.Value{Data: []byte("v"), TS: core.TS(3)}
	items := []store.Item{{RingID: 9, Qual: "ums|k|h1", Val: val}}
	svc := map[string]network.Message{"kts": kts.CounterBatch{Entries: []kts.CounterEntry{{Key: "k", TS: core.TS(4)}}}}
	zone := can.Zone{Lo: can.Point{0, 0}, Hi: can.Point{0.5, 0.5}}
	info := can.NeighborInfo{Ref: ref, Zones: []can.Zone{zone}}
	return []request{
		{dht.MethodPut, dht.PutReq{RingID: 9, Qual: "ums|k|h1", Val: val, Mode: dht.PutIfNewer}},
		{dht.MethodGet, dht.GetReq{RingID: 9, Qual: "ums|k|h1"}},
		{dht.MethodPutBatch, dht.PutBatchReq{Items: append(items, store.Item{RingID: 10, Qual: "ums|k|h2", Val: val}), Mode: dht.PutIfNewer}},
		{dht.MethodPing, dht.PingReq{}},
		{kts.MethodGenTS, kts.GenTSReq{Key: "k"}},
		{kts.MethodLastTS, kts.LastTSReq{Key: "k"}},
		{kts.MethodRecover, kts.RecoverReq{Entries: []kts.CounterEntry{{Key: "k", TS: core.TS(5)}}}},
		{"chord.State", chord.StateReq{}},
		{"chord.FindStep", chord.FindStepReq{Target: 5, Exclude: []core.ID{1}}},
		{"chord.Notify", chord.NotifyReq{Candidate: ref}},
		{"chord.SuccCandidate", chord.SuccCandidateReq{Candidate: ref}},
		{"chord.Transfer", chord.TransferReq{NewNode: ref}},
		{"chord.Absorb", chord.AbsorbReq{From: ref, Items: items, Services: svc, NewPred: ref, Departing: true}},
		{"chord.PredLeaving", chord.PredLeavingReq{Departing: ref, Replacements: []dht.NodeRef{ref}}},
		{"can.RouteStep", can.RouteStepReq{Target: can.Point{0.1, 0.2}, Exclude: []core.ID{1}}},
		{"can.Split", can.SplitReq{NewNode: ref}},
		{"can.Takeover", can.TakeoverReq{From: ref, Zones: []can.Zone{zone}, Items: items, Services: svc, Neighbors: []can.NeighborInfo{info}}},
		{"can.Update", can.UpdateReq{Info: info}},
		{"can.Gone", can.GoneReq{Departed: ref, Successor: info}},
		{"can.State", can.StateReq{}},
		{"onehop.Owner", onehop.OwnerReq{Target: 3, Exclude: []core.ID{1}}},
		{"onehop.Table", onehop.TableReq{}},
		{"onehop.Join", onehop.JoinReq{NewNode: ref}},
		{"onehop.Event", onehop.EventReq{From: ref, Joins: []dht.NodeRef{ref}, Leaves: []core.ID{7}}},
		{"onehop.Bulk", onehop.BulkReq{From: ref, Items: items, Services: svc}},
	}
}

// FuzzMethodTable decodes the fuzz bytes as a request frame and delivers
// it to a live peer of each substrate, every handler of the stack
// registered. Whatever the frame names and carries — a method's own
// request, another method's, none — no handler may panic, and the peer
// must still answer a ping afterwards.
func FuzzMethodTable(f *testing.F) {
	for _, m := range methodTable() {
		f.Add(requestFrame(m.method, m.req))
		f.Add(requestFrame(m.method, nil))
		f.Add(requestFrame(m.method, dht.PutResp{Stored: true})) // a type no handler serves
	}
	f.Add(requestFrame(dht.MethodGet, kts.GenTSReq{Key: "k"}))
	// A batch claiming more items than its frame has bytes for: the
	// codec's count check must turn it away before anything allocates.
	empty := requestFrame(dht.MethodPutBatch, dht.PutBatchReq{}) // ends in its count and mode
	head := empty[: len(empty)-2 : len(empty)-2]
	f.Add(append(binary.AppendUvarint(head, 1<<40), 0))
	f.Add(requestFrame("no.such.method", dht.PingReq{}))
	// Fused gen_ts and last_ts naming positions the callee does not own:
	// past the end of Hr, and negative.
	f.Add(requestFrame(kts.MethodGenTS, kts.GenTSReq{Key: "k", Data: []byte("v"), Hr: []int{0, 99, -1}}))
	f.Add(requestFrame(kts.MethodLastTS, kts.LastTSReq{Key: "k", Hr: []int{2, 1 << 40}}))
	// A fused reply whose per-position slices are shorter than its
	// positions, sent where a request belongs.
	f.Add(requestFrame(kts.MethodGenTS, kts.GenTSResp{TS: core.TS(1), Stored: []bool{true}}))

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<16 {
			return // the codec bounds every allocation by the input; keep runs small
		}
		method, req, err := cutRequest(data)
		if err != nil {
			return
		}
		k := simnet.New(1)
		defer k.Stop()
		net := simwire.New(k, simwire.Cluster())
		cli := net.NewEndpoint("")
		for _, kind := range []RingKind{RingChord, RingCAN, RingOneHop} {
			s, err := New(net.Env(), net.NewEndpoint(""), nil, Config{Replicas: 3, Ring: kind})
			if err != nil {
				t.Fatal(err)
			}
			s.Node.CreateRing()
			s.Start()
			to := s.Node.Self().Addr
			var pingErr error
			done := false
			k.Go(func() {
				ctx := context.Background()
				cli.Invoke(ctx, to, method, req, network.Call{})
				_, pingErr = cli.Invoke(ctx, to, dht.MethodPing, dht.PingReq{}, network.Call{})
				done = true
			})
			for i := 0; i < 120 && !done; i++ {
				k.Run(k.Now() + time.Second)
			}
			if !done || pingErr != nil {
				t.Fatalf("%s peer after %s %T: ping done=%v err=%v", kind, method, req, done, pingErr)
			}
		}
	})
}
