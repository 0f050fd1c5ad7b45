package dcdht

import (
	"context"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dht"
	"repro/internal/kts"
	"repro/internal/network"
)

// TestHostileFrameDoesNotCrashNode writes raw request frames to a real
// node: one naming dht.Get but carrying a kts.GenTSReq body, one naming
// dht.Put with no body at all. Each must come back as an error reply
// wrapping core.ErrUnreachable, the answer to a method nobody serves,
// and the node must go on answering well-formed requests.
func TestHostileFrameDoesNotCrashNode(t *testing.T) {
	n, err := StartNode("127.0.0.1:0", NodeConfig{Replicas: 3, GraceDelay: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	n.CreateRing()

	conn, err := net.Dial("tcp", n.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	// call sends one request frame (length, method, caller, message) and
	// decodes the reply frame (length, error code, error text, message).
	call := func(method string, req network.Message) (network.Message, error) {
		t.Helper()
		body := network.AppendString(nil, method)
		body = network.AppendString(body, "hostile")
		body, err := network.AppendMessage(body, req)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := conn.Write(append(binary.BigEndian.AppendUint32(nil, uint32(len(body))), body...)); err != nil {
			t.Fatalf("%s: write: %v", method, err)
		}
		var hdr [4]byte
		if _, err := io.ReadFull(conn, hdr[:]); err != nil {
			t.Fatalf("%s: no reply: %v", method, err)
		}
		reply := make([]byte, binary.BigEndian.Uint32(hdr[:]))
		if _, err := io.ReadFull(conn, reply); err != nil {
			t.Fatalf("%s: short reply: %v", method, err)
		}
		code, rest, err := network.CutString(reply)
		if err != nil {
			t.Fatal(err)
		}
		msg, rest, err := network.CutString(rest)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := network.DecodeMessage(rest)
		if err != nil {
			t.Fatal(err)
		}
		return resp, network.DecodeError(code, msg)
	}

	for _, tc := range []struct {
		method string
		req    network.Message
	}{
		{dht.MethodGet, kts.GenTSReq{Key: "k"}},
		{dht.MethodPut, nil},
	} {
		if resp, err := call(tc.method, tc.req); !errors.Is(err, core.ErrUnreachable) {
			t.Errorf("%s with a %T body answered %v, %v; want an error wrapping ErrUnreachable", tc.method, tc.req, resp, err)
		}
	}
	if resp, err := call(dht.MethodPing, dht.PingReq{}); err != nil || resp != (dht.PingResp{}) {
		t.Fatalf("ping after the hostile frames answered %v, %v", resp, err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if _, err := n.Put(ctx, "k", []byte("v")); err != nil {
		t.Fatalf("put after the hostile frames: %v", err)
	}
	if r, err := n.Get(ctx, "k"); err != nil || string(r.Data) != "v" {
		t.Fatalf("get after the hostile frames = %q, %v", r.Data, err)
	}
}
