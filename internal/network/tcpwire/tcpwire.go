// Package tcpwire is the real transport: RPCs over TCP and
// per-destination connection pooling. It backs the deployment mode of
// the reproduction — the stand-in for the paper's 64-node cluster — and
// runs the exact same protocol code as the simulated transport.
//
// The package only frames: each frame is a big-endian uint32 length,
// then two strings — method and caller for a request, error code and
// message for a response — then the message, all in the wire form of
// internal/network's codec. There is no version negotiation, so every
// peer of a ring must run the same build.
package tcpwire

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/network"
	"repro/internal/obs"
)

// DefaultTimeout bounds calls that do not specify one.
const DefaultTimeout = 5 * time.Second

// maxFrame caps a frame's length; a peer that announces a longer one
// loses the connection. It leaves room for the bulk handovers of a big
// arc while keeping a lying length prefix harmless.
const maxFrame = 64 << 20

// keepBuf is the largest frame buffer a connection keeps for reuse: a
// request or reply carrying one 1 KB value fits, and a rarer bigger
// frame (an owner batch, a handover) is allocated for itself, so it
// does not stay resident on every connection.
const keepBuf = 2 << 10

// trustLen is the longest announced frame read into one allocation of
// its announced size; a longer one grows with the bytes that arrive.
const trustLen = 64 << 10

// maxIdlePerHost limits pooled idle connections per destination.
const maxIdlePerHost = 4

// Endpoint is a TCP attachment: a listener serving registered handlers
// plus an outbound connection pool.
type Endpoint struct {
	ln   net.Listener
	addr network.Addr

	mu       sync.Mutex
	handlers map[string]network.HandlerFunc
	pools    map[network.Addr]*connPool
	accepted map[net.Conn]bool
	closed   bool

	metrics netMetrics
}

// netMetrics holds the transport's counters. The fields are always live
// (the obs constructors are nil-registry safe), so the hot path never
// branches on whether instrumentation is enabled.
type netMetrics struct {
	dials    *obs.Counter
	accepts  *obs.Counter
	calls    *obs.Counter
	aborts   *obs.Counter
	inflight *obs.Gauge
}

func newNetMetrics(reg *obs.Registry) netMetrics {
	return netMetrics{
		dials: reg.Counter("dcdht_net_dials_total",
			"Outbound TCP connections dialed (pool misses)."),
		accepts: reg.Counter("dcdht_net_conns_accepted_total",
			"Inbound TCP connections accepted."),
		calls: reg.Counter("dcdht_net_calls_total",
			"RPC invocations attempted over TCP."),
		aborts: reg.Counter("dcdht_net_call_aborts_total",
			"Calls aborted mid-flight by deadline, cancellation or I/O error."),
		inflight: reg.Gauge("dcdht_net_inflight",
			"RPC invocations currently in flight."),
	}
}

var _ network.Endpoint = (*Endpoint)(nil)

// Listen opens an endpoint on hostport ("127.0.0.1:0" picks a free
// port; the chosen address is available via Addr).
func Listen(hostport string) (*Endpoint, error) {
	return ListenWith(hostport, nil)
}

// ListenWith opens an endpoint like Listen and registers its transport
// metrics (dials, accepted conns, in-flight calls, deadline aborts) in
// reg. A nil registry disables export; the counters still work so the
// call path is identical either way. The registry must be supplied here
// rather than after the fact because the accept loop starts immediately.
func ListenWith(hostport string, reg *obs.Registry) (*Endpoint, error) {
	ln, err := net.Listen("tcp", hostport)
	if err != nil {
		return nil, fmt.Errorf("tcpwire: listen %s: %w", hostport, err)
	}
	ep := &Endpoint{
		ln:       ln,
		addr:     network.Addr(ln.Addr().String()),
		handlers: make(map[string]network.HandlerFunc),
		pools:    make(map[network.Addr]*connPool),
		accepted: make(map[net.Conn]bool),
		metrics:  newNetMetrics(reg),
	}
	go ep.acceptLoop()
	return ep, nil
}

// Addr implements network.Endpoint.
func (ep *Endpoint) Addr() network.Addr { return ep.addr }

// Handle implements network.Endpoint.
func (ep *Endpoint) Handle(method string, h network.HandlerFunc) {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	ep.handlers[method] = h
}

// Close implements network.Endpoint: it stops accepting, closes pooled
// connections and fails subsequent calls.
func (ep *Endpoint) Close() error {
	ep.mu.Lock()
	if ep.closed {
		ep.mu.Unlock()
		return nil
	}
	ep.closed = true
	pools := ep.pools
	ep.pools = map[network.Addr]*connPool{}
	accepted := ep.accepted
	ep.accepted = map[net.Conn]bool{}
	ep.mu.Unlock()
	err := ep.ln.Close()
	for _, p := range pools {
		p.closeAll()
	}
	for c := range accepted {
		c.Close()
	}
	return err
}

func (ep *Endpoint) isClosed() bool {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	return ep.closed
}

func (ep *Endpoint) handler(method string) network.HandlerFunc {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	return ep.handlers[method]
}

func (ep *Endpoint) acceptLoop() {
	for {
		conn, err := ep.ln.Accept()
		if err != nil {
			return // listener closed
		}
		ep.mu.Lock()
		if ep.closed {
			ep.mu.Unlock()
			conn.Close()
			return
		}
		ep.accepted[conn] = true
		ep.mu.Unlock()
		ep.metrics.accepts.Inc()
		go ep.serveConn(conn)
	}
}

// serveConn handles one inbound connection: a sequence of
// request/response exchanges (the client holds the connection exclusively
// per call, so frames never interleave).
func (ep *Endpoint) serveConn(conn net.Conn) {
	defer func() {
		conn.Close()
		ep.mu.Lock()
		delete(ep.accepted, conn)
		ep.mu.Unlock()
	}()
	fc := newFrameConn(conn)
	for {
		method, from, req, err := fc.read()
		if err != nil {
			return
		}
		var code, msg string
		var body network.Message
		if h := ep.handler(method); h == nil {
			code, msg = network.EncodeError(
				fmt.Errorf("tcpwire: no handler for %q: %w", method, core.ErrUnreachable))
		} else {
			body, err = h(network.Addr(from), req)
			code, msg = network.EncodeError(err)
		}
		if err := fc.write(code, msg, body); err != nil {
			return
		}
	}
}

// Invoke implements network.Endpoint. The context is honored natively:
// an already-done context fails fast, its deadline caps the socket
// deadlines (dial, write and read), and a cancellation mid-flight
// aborts the in-progress I/O.
func (ep *Endpoint) Invoke(ctx context.Context, to network.Addr, method string, req network.Message, opt network.Call) (network.Message, error) {
	if ep.isClosed() {
		return nil, fmt.Errorf("tcpwire: %s: %w", ep.addr, core.ErrStopped)
	}
	if err := network.CtxError(ctx); err != nil {
		return nil, fmt.Errorf("tcpwire: %s->%s %s: %w", ep.addr, to, method, err)
	}
	timeout := network.Patience(ctx, opt.Timeout, DefaultTimeout)
	ep.metrics.calls.Inc()
	ep.metrics.inflight.Add(1)
	defer ep.metrics.inflight.Add(-1)
	pc, err := ep.getConn(ctx, to, timeout)
	if err != nil {
		if cerr := network.CtxError(ctx); cerr != nil {
			return nil, fmt.Errorf("tcpwire: %s->%s %s: %w", ep.addr, to, method, cerr)
		}
		return nil, err
	}
	meter := network.MeterFrom(ctx)
	meter.Count(network.SizeOf(req))

	pc.conn.SetDeadline(time.Now().Add(timeout))
	// A cancellation mid-flight yanks the socket deadline into the past,
	// which aborts the blocked write or read immediately.
	stopWatch := context.AfterFunc(ctx, func() { pc.conn.SetDeadline(time.Unix(1, 0)) })
	abort := func(ioErr error) error {
		ep.metrics.aborts.Inc()
		stopWatch()
		pc.close()
		if cerr := network.CtxError(ctx); cerr != nil {
			return fmt.Errorf("tcpwire: %s->%s %s: %w", ep.addr, to, method, cerr)
		}
		return mapNetErr(ep.addr, to, method, ioErr)
	}
	if err := pc.write(method, string(ep.addr), req); err != nil {
		return nil, abort(err)
	}
	// The reply is decoded before the conn goes back to the pool: it
	// reads out of the conn's buffer.
	code, msg, body, err := pc.read()
	if err != nil {
		return nil, abort(err)
	}
	if !stopWatch() {
		// The cancellation watchdog already started: it may yank the
		// socket deadline at any moment, so this conn cannot be trusted
		// by a future lease — drop it instead of pooling.
		pc.close()
	} else {
		pc.conn.SetDeadline(time.Time{})
		ep.putConn(to, pc)
	}

	if code != "" {
		meter.Count(network.DefaultWireSize)
		return nil, network.DecodeError(code, msg)
	}
	meter.Count(network.SizeOf(body))
	return body, nil
}

// mapNetErr folds socket errors into the core taxonomy so protocol code
// treats simulated and real failures identically.
func mapNetErr(from, to network.Addr, method string, err error) error {
	var nerr net.Error
	if errors.As(err, &nerr) && nerr.Timeout() {
		return fmt.Errorf("tcpwire: %s->%s %s: %w", from, to, method, core.ErrTimeout)
	}
	return fmt.Errorf("tcpwire: %s->%s %s: %v: %w", from, to, method, err, core.ErrUnreachable)
}

// frameConn is one connection with its framing state: a buffered reader
// and the buffers of the frame last read and last written. Frames on a
// connection never interleave — a client holds it for one call at a
// time, and a server answers each request before reading the next — so
// one of each suffices.
type frameConn struct {
	conn net.Conn
	r    *bufio.Reader
	hdr  [4]byte
	rbuf []byte
	wbuf []byte
}

func newFrameConn(conn net.Conn) *frameConn {
	return &frameConn{conn: conn, r: bufio.NewReader(conn)}
}

func (fc *frameConn) close() { fc.conn.Close() }

// write sends one frame — two header strings and a message — with one
// Write.
func (fc *frameConn) write(s1, s2 string, m network.Message) error {
	b, err := appendFrame(fc.wbuf[:0], s1, s2, m)
	if err != nil {
		return err
	}
	if cap(b) <= keepBuf {
		fc.wbuf = b
	}
	_, err = fc.conn.Write(b)
	return err
}

// read receives one frame and decodes it; the results share no memory
// with the conn's buffer.
func (fc *frameConn) read() (s1, s2 string, m network.Message, err error) {
	if _, err := io.ReadFull(fc.r, fc.hdr[:]); err != nil {
		return "", "", nil, err
	}
	n := binary.BigEndian.Uint32(fc.hdr[:])
	if n > maxFrame {
		return "", "", nil, fmt.Errorf("tcpwire: frame of %d bytes exceeds %d", n, maxFrame)
	}
	var body []byte
	switch {
	case n <= keepBuf:
		if int(n) > cap(fc.rbuf) {
			fc.rbuf = make([]byte, n)
		}
		body = fc.rbuf[:n]
		_, err = io.ReadFull(fc.r, body)
	case n <= trustLen:
		body = make([]byte, n)
		_, err = io.ReadFull(fc.r, body)
	default:
		// A frame this long grows with the bytes that arrive, so a
		// length prefix that lies costs no more than was sent.
		var buf bytes.Buffer
		_, err = io.CopyN(&buf, fc.r, int64(n))
		body = buf.Bytes()
	}
	if err != nil {
		return "", "", nil, err
	}
	return cutFrame(body)
}

// appendFrame appends a frame of two header strings and a message to b,
// length first.
func appendFrame(b []byte, s1, s2 string, m network.Message) ([]byte, error) {
	b = append(b, 0, 0, 0, 0)
	b = network.AppendString(b, s1)
	b = network.AppendString(b, s2)
	b, err := network.AppendMessage(b, m)
	if err != nil {
		return nil, err
	}
	n := len(b) - 4
	if n > maxFrame {
		return nil, fmt.Errorf("tcpwire: frame of %d bytes exceeds %d", n, maxFrame)
	}
	binary.BigEndian.PutUint32(b, uint32(n))
	return b, nil
}

// cutFrame splits a frame's body into its header strings and message.
func cutFrame(body []byte) (s1, s2 string, m network.Message, err error) {
	if s1, body, err = network.CutString(body); err != nil {
		return "", "", nil, err
	}
	if s2, body, err = network.CutString(body); err != nil {
		return "", "", nil, err
	}
	m, err = network.DecodeMessage(body)
	return s1, s2, m, err
}

// connPool keeps idle connections to one destination.
type connPool struct {
	mu   sync.Mutex
	idle []*frameConn
}

func (p *connPool) get() *frameConn {
	p.mu.Lock()
	defer p.mu.Unlock()
	if n := len(p.idle); n > 0 {
		pc := p.idle[n-1]
		p.idle = p.idle[:n-1]
		return pc
	}
	return nil
}

func (p *connPool) put(pc *frameConn) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.idle) >= maxIdlePerHost {
		return false
	}
	p.idle = append(p.idle, pc)
	return true
}

func (p *connPool) closeAll() {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, pc := range p.idle {
		pc.close()
	}
	p.idle = nil
}

func (ep *Endpoint) pool(to network.Addr) *connPool {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	p := ep.pools[to]
	if p == nil {
		p = &connPool{}
		ep.pools[to] = p
	}
	return p
}

func (ep *Endpoint) getConn(ctx context.Context, to network.Addr, timeout time.Duration) (*frameConn, error) {
	if pc := ep.pool(to).get(); pc != nil {
		return pc, nil
	}
	d := net.Dialer{Timeout: timeout}
	ep.metrics.dials.Inc()
	conn, err := d.DialContext(ctx, "tcp", string(to))
	if err != nil {
		return nil, mapNetErr(ep.addr, to, "dial", err)
	}
	if tc, ok := conn.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}
	return newFrameConn(conn), nil
}

func (ep *Endpoint) putConn(to network.Addr, pc *frameConn) {
	if ep.isClosed() || !ep.pool(to).put(pc) {
		pc.close()
	}
}
