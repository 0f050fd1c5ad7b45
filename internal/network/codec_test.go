package network_test

import (
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/can"
	"repro/internal/chord"
	"repro/internal/core"
	"repro/internal/dht"
	"repro/internal/kts"
	"repro/internal/network"
	"repro/internal/onehop"
	"repro/internal/store"
)

var (
	ref1  = dht.NodeRef{ID: 1 << 63, Addr: "10.0.0.1:4100"}
	ref2  = dht.NodeRef{ID: 7, Addr: "10.0.0.2:4100"}
	val   = core.Value{Data: []byte("payload\x00\xff"), TS: core.Timestamp{Hi: 1, Lo: 1<<64 - 1}}
	item  = store.Item{RingID: 42, Qual: "ums/k/hr0", Val: val}
	batch = kts.CounterBatch{Entries: []kts.CounterEntry{{Key: "k1", TS: core.TS(3)}, {Key: "", TS: core.TSMax}}}
	zone  = can.Zone{Lo: can.Point{0, 0.25}, Hi: can.Point{0.5, 1}}
	info  = can.NeighborInfo{Ref: ref2, Zones: []can.Zone{zone, can.FullZone()}}
	svc   = map[string]network.Message{"kts": batch, "empty": kts.CounterBatch{}}
	cost  = network.Meter{Msgs: 3, Bytes: -1}
)

// wireSamples holds one populated value of every registered message
// type, with empty and nil slices and maps among them.
var wireSamples = []network.Message{
	// dht
	dht.PutReq{RingID: 9, Qual: "q", Val: val, Mode: dht.PutIfNewer},
	dht.PutResp{Stored: true},
	dht.GetReq{RingID: 1<<64 - 1, Qual: "brk/x/h1"},
	dht.GetResp{Val: core.Value{TS: core.TS(1)}}, // nil Data
	dht.PutBatchReq{Items: []store.Item{item, {}}, Mode: dht.PutIfNewer},
	dht.PutBatchResp{Stored: []bool{true, false}, Code: []string{"", "not_responsible"}, Msg: []string{"", "moved"}},
	ref1,
	dht.PingReq{},
	dht.PingResp{},
	map[string]network.Message{"kts": batch, "nil": nil},
	// chord
	chord.StateReq{},
	chord.StateResp{Self: ref1, Pred: ref2, Succs: []dht.NodeRef{ref2, ref1}},
	chord.FindStepReq{Target: 5, Exclude: []core.ID{1, 2, 3}},
	chord.FindStepResp{Done: true, Next: ref1, Pred: ref2},
	chord.NotifyReq{Candidate: ref1},
	chord.NotifyResp{},
	chord.SuccCandidateReq{Candidate: ref2},
	chord.SuccCandidateResp{},
	chord.TransferReq{NewNode: ref1},
	chord.TransferResp{Items: []store.Item{item}, Services: svc, Pred: ref2, Succs: []dht.NodeRef{ref1}, Fingers: []dht.NodeRef{ref2, ref2}},
	chord.AbsorbReq{From: ref1, Items: []store.Item{item, item}, Services: svc, NewPred: ref2, Departing: true},
	chord.AbsorbResp{},
	chord.PredLeavingReq{Departing: ref1, Replacements: []dht.NodeRef{ref2}},
	chord.PredLeavingResp{},
	// can
	can.RouteStepReq{Target: can.Point{0.1, -0.0}, Exclude: []core.ID{4}},
	can.RouteStepResp{Done: true, Next: ref1},
	can.SplitReq{NewNode: ref2},
	can.SplitResp{Zone: zone, Items: []store.Item{item}, Services: svc, Neighbors: []can.NeighborInfo{info}},
	can.TakeoverReq{From: ref1, Zones: []can.Zone{zone}, Items: []store.Item{item}, Services: svc, Neighbors: []can.NeighborInfo{info, {}}},
	can.TakeoverResp{},
	can.UpdateReq{Info: info},
	can.UpdateResp{Info: info},
	can.GoneReq{Departed: ref1, Successor: info},
	can.GoneResp{},
	can.StateReq{},
	can.StateResp{Info: info, Neighbors: []can.NeighborInfo{info}},
	info,
	zone,
	can.Point{1, 0.5},
	// kts
	kts.GenTSReq{Key: "k"},
	kts.GenTSResp{TS: core.TS(17), Cost: cost},
	kts.LastTSReq{Key: "ключ"},
	kts.LastTSResp{TS: core.TSMax, Cost: cost},
	batch,
	kts.RecoverReq{Entries: batch.Entries},
	kts.RecoverResp{Corrected: -4},
	// onehop
	onehop.OwnerReq{Target: 3, Exclude: []core.ID{}}, // empty, decodes as nil
	onehop.OwnerResp{Owns: true, Better: ref1},
	onehop.TableReq{},
	onehop.TableResp{Table: []dht.NodeRef{ref1, ref2}},
	onehop.JoinReq{NewNode: ref2},
	onehop.JoinResp{Items: []store.Item{item}, Services: map[string]network.Message{}, Table: []dht.NodeRef{ref1}},
	onehop.EventReq{From: ref1, Joins: []dht.NodeRef{ref2}, Leaves: []core.ID{8}},
	onehop.EventResp{},
	onehop.BulkReq{From: ref2, Items: []store.Item{item, {}}, Services: svc},
	onehop.BulkResp{},
	// store: the log and snapshot records
	item,
	store.Counter{Key: "k", TS: core.TSMax},
	store.DeletedItem{RingID: 1<<64 - 1, Qual: "brk|k|h2"},
	store.DeletedCounter{Key: ""},
	// kts: a fused gen_ts and last_ts, naming replica positions
	kts.GenTSReq{Key: "k", Data: []byte("v"), Hr: []int{0, 7}},
	kts.GenTSResp{TS: core.TS(18), Cost: cost, Stored: []bool{true, false}, Code: []string{"", "not_responsible"}, Msg: []string{"", "moved"}},
	kts.LastTSReq{Key: "k", Hr: []int{3}},
	kts.LastTSResp{TS: core.TS(18), Cost: cost, Vals: []core.Value{val, {}}, Code: []string{"", "not_found"}, Msg: []string{"", "gone"}},
}

// wantDecoded is what v comes back as: gob's convention, which the codec
// keeps, turns an empty slice or map into nil.
func wantDecoded(v network.Message) network.Message {
	switch m := v.(type) {
	case onehop.OwnerReq:
		m.Exclude = nil
		return m
	case onehop.JoinResp:
		m.Services = nil
		return m
	}
	return v
}

func TestWireRoundTripEveryRegisteredType(t *testing.T) {
	covered := map[string]bool{}
	for _, v := range wireSamples {
		name := fmt.Sprintf("%T", v)
		covered[name] = true
		b, err := network.AppendMessage(nil, v)
		if err != nil {
			t.Errorf("%s: encode: %v", name, err)
			continue
		}
		got, err := network.DecodeMessage(b)
		if err != nil {
			t.Errorf("%s: decode: %v", name, err)
			continue
		}
		// A transport reuses its buffer for the next frame: what was
		// decoded must not change with it.
		for i := range b {
			b[i] = 'x'
		}
		if want := wantDecoded(v); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: round trip gave %#v, want %#v", name, got, want)
		}
	}
	for _, name := range network.RegisteredNames() {
		if !covered[name] && !strings.HasPrefix(name, "network.") && !strings.HasPrefix(name, "network_test.") {
			t.Errorf("registered message %s has no row in wireSamples", name)
		}
	}
	if b, err := network.AppendMessage(nil, nil); err != nil || len(b) != 1 {
		t.Fatalf("nil message encodes as %x, %v", b, err)
	} else if m, err := network.DecodeMessage(b); m != nil || err != nil {
		t.Fatalf("nil message decodes as %#v, %v", m, err)
	}
}

func TestWireRejects(t *testing.T) {
	type unregistered struct{ A int }
	if _, err := network.AppendMessage(nil, unregistered{}); err == nil {
		t.Error("an unregistered type encoded")
	}
	if _, err := network.AppendMessage(nil, dht.PingReq{}); err != nil {
		t.Fatal(err)
	}
	nested := map[string]network.Message{"x": unregistered{}}
	if _, err := network.AppendMessage(nil, nested); err == nil {
		t.Error("an unregistered type nested in a message encoded")
	}
	valid, err := network.AppendMessage(nil, dht.PutBatchReq{Items: []store.Item{item, item}, Mode: dht.PutIfNewer})
	if err != nil {
		t.Fatal(err)
	}
	var tooDeep []byte // 40 maps, each holding the next under "n"
	for range 40 {
		tooDeep = append(network.AppendString(tooDeep, "map[string]network.Message"), 1)
		tooDeep = network.AppendString(tooDeep, "n")
	}
	tooDeep = append(tooDeep, 0)
	for name, b := range map[string][]byte{
		"empty input":     {},
		"unknown name":    append(network.AppendString(nil, "nope.Msg"), 0),
		"truncated":       valid[:len(valid)-1],
		"trailing byte":   append(append([]byte(nil), valid...), 0),
		"count overflows": append(network.AppendString(nil, "dht.PutBatchReq"), 0xff, 0xff, 0xff, 0xff, 0x0f),
		"nested too deep": tooDeep,
	} {
		if m, err := network.DecodeMessage(b); err == nil {
			t.Errorf("%s: decoded %#v", name, m)
		}
	}
	var deep network.Message = dht.PingReq{}
	for range 40 {
		deep = map[string]network.Message{"n": deep}
	}
	if _, err := network.AppendMessage(nil, deep); err == nil {
		t.Error("40 nested messages encoded")
	}
}

func TestRegisterMessageRefuses(t *testing.T) {
	type withPointer struct{ P *int }
	type withChan struct{ C chan int }
	type withFunc struct{ F func() }
	type withError struct{ E error }
	type withUnexported struct {
		A int
		b int
	}
	type recursive struct{ Kids []recursive }
	registerDup := func() {
		type dup struct{ A int }
		network.RegisterMessage(dup{})
	}
	registerDup()
	registerDup() // the same type again is fine
	for name, register := range map[string]func(){
		"pointer field":    func() { network.RegisterMessage(withPointer{}) },
		"chan field":       func() { network.RegisterMessage(withChan{}) },
		"func field":       func() { network.RegisterMessage(withFunc{}) },
		"non-empty iface":  func() { network.RegisterMessage(withError{}) },
		"unexported field": func() { network.RegisterMessage(withUnexported{}) },
		"recursive type":   func() { network.RegisterMessage(recursive{}) },
		"nil message":      func() { network.RegisterMessage(nil) },
		"reused name": func() {
			type dup struct{ B string }
			network.RegisterMessage(dup{})
		},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: RegisterMessage did not panic", name)
				}
			}()
			register()
		}()
	}
}

// FuzzWireMessage decodes arbitrary bytes as a message. The decoder must
// return a message or an error, never panic, and allocate no more than a
// small multiple of its input; a message it returns must encode and
// decode back to itself.
func FuzzWireMessage(f *testing.F) {
	for _, v := range wireSamples {
		b, err := network.AppendMessage(nil, v)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		m, err := network.DecodeMessage(data)
		runtime.ReadMemStats(&after)
		if n := after.TotalAlloc - before.TotalAlloc; n > 64*uint64(len(data))+1<<20 {
			t.Fatalf("decoding %d bytes allocated %d", len(data), n)
		}
		if err != nil {
			return
		}
		b, err := network.AppendMessage(nil, m)
		if err != nil {
			t.Fatalf("decoded %#v does not encode: %v", m, err)
		}
		again, err := network.DecodeMessage(b)
		if err != nil {
			t.Fatalf("re-encoded %#v does not decode: %v", m, err)
		}
		// %#v prints maps in key order and NaN as NaN, where DeepEqual
		// fails on NaN.
		if got, want := fmt.Sprintf("%#v", again), fmt.Sprintf("%#v", m); got != want {
			t.Fatalf("round trip changed %s into %s", want, got)
		}
	})
}
