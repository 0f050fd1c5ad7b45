package tcpwire

import (
	"context"
	"io"
	"net"
	"runtime"
	"testing"
	"time"

	"repro/internal/network"
)

// frame encodes one request the way Invoke sends it.
func frame(method, from string, m network.Message) []byte {
	b, err := appendFrame(nil, method, from, m)
	if err != nil {
		panic(err)
	}
	return b
}

// FuzzServeConn feeds arbitrary bytes to the inbound side of a
// connection — serveConn, the only code that reads what a remote peer
// sends — through a net.Pipe whose other end swallows every reply. Whatever
// the bytes, serveConn must not panic, must allocate no more than a small
// multiple of them, must return within a bounded time once the peer hangs
// up, must leave no goroutine behind, and must leave the endpoint
// answering a well-formed call.
func FuzzServeConn(f *testing.F) {
	valid := frame("ping", "peer", ping{N: 41})
	f.Add(valid)
	f.Add(valid[:len(valid)-3]) // truncated mid-body
	f.Add(frame("no-such-method", "peer", ping{N: 1}))
	f.Add(append(frame("ping", "", ping{N: 1}), frame("ping", "", ping{N: 2})...))
	f.Add([]byte{0x80, 0, 0, 0, 'p', 'i', 'n', 'g'}) // a length prefix that claims 2 GB
	f.Add([]byte{})

	ep, cli := newFuzzPair(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<16 {
			return // the codec bounds every allocation by the input; keep runs small
		}
		baseline := runtime.NumGoroutine()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		client, server := net.Pipe()
		served := make(chan struct{})
		go func() {
			defer close(served)
			ep.serveConn(server)
		}()
		drained := make(chan struct{})
		go func() {
			defer close(drained)
			io.Copy(io.Discard, client)
		}()
		// A pipe write returns once serveConn has read all of it, or
		// fails once serveConn has given up and closed its end.
		client.Write(data)
		client.Close()
		select {
		case <-served:
		case <-time.After(5 * time.Second):
			t.Fatalf("serveConn still running 5s after the peer hung up on %d bytes", len(data))
		}
		<-drained
		runtime.ReadMemStats(&after)
		if n := after.TotalAlloc - before.TotalAlloc; n > 64*uint64(len(data))+1<<20 {
			t.Fatalf("serving %d bytes allocated %d", len(data), n)
		}
		for i := 0; runtime.NumGoroutine() > baseline; i++ {
			if i == 100 {
				t.Fatalf("%d goroutines after serving %d bytes, %d before", runtime.NumGoroutine(), len(data), baseline)
			}
			time.Sleep(time.Millisecond)
		}

		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		resp, err := cli.Invoke(ctx, ep.Addr(), "ping", ping{N: 1}, network.Call{})
		if err != nil || resp != (pong{N: 2}) {
			t.Fatalf("after serving %d bytes: ping answered %v, %v", len(data), resp, err)
		}
	})
}

// newFuzzPair opens a serving endpoint that answers ping and a client
// endpoint to call it from, for the whole fuzz run.
func newFuzzPair(f *testing.F) (ep, cli *Endpoint) {
	ep, err := Listen("127.0.0.1:0")
	if err != nil {
		f.Fatal(err)
	}
	cli, err = Listen("127.0.0.1:0")
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { ep.Close(); cli.Close() })
	ep.Handle("ping", func(_ network.Addr, req network.Message) (network.Message, error) {
		p, _ := req.(ping)
		return pong{N: p.N + 1}, nil
	})
	return ep, cli
}
