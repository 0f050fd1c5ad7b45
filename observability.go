package dcdht

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"

	"repro/internal/can"
	"repro/internal/chord"
	"repro/internal/obs"
	"repro/internal/onehop"
)

// MetricsRegistry is a node's metrics registry: counters, gauges and
// histograms covering operations, KTS, routing, repair, storage and the
// TCP transport. Scrape it with WritePrometheus/Handler or capture it
// with Snapshot. See docs/OBSERVABILITY.md for the full metric families.
type MetricsRegistry = obs.Registry

// MetricsSnapshot is a point-in-time capture of a registry: families
// sorted by name, series by label values, stable across identical runs.
// It marshals to JSON for programmatic consumers.
type MetricsSnapshot = obs.Snapshot

// Metrics returns the node's registry, for embedding its families into
// a larger exposition or capturing snapshots in tests.
func (n *Node) Metrics() *MetricsRegistry { return n.obs }

// RecoverySummary reports what a durable node reconstructed from its
// data directory at start, in /debug/status form.
type RecoverySummary struct {
	// Items is the number of hosted replicas recovered.
	Items int `json:"items"`
	// Counters is the number of KTS counters recovered.
	Counters int `json:"counters"`
	// Records is the number of log records replayed.
	Records int `json:"records"`
	// TornTail reports whether a torn final record (normal crash
	// residue) was found and discarded.
	TornTail bool `json:"torn_tail"`
}

// NodeStatus is the /debug/status document: the node's ring position
// and neighbours, what it currently holds, and — for durable nodes —
// what the last start recovered.
type NodeStatus struct {
	// Addr is the node's listen address.
	Addr string `json:"addr"`
	// ID is the node's ring position (its hashed address).
	ID string `json:"id"`
	// Ring is the overlay substrate ("chord", "can" or "onehop").
	Ring string `json:"ring"`
	// Predecessor is the ring predecessor's address (chord and onehop;
	// empty when unknown).
	Predecessor string `json:"predecessor,omitempty"`
	// Successor is the ring successor's address (chord only).
	Successor string `json:"successor,omitempty"`
	// LearnedArcs is how many arcs proved by the node's own lookups its
	// Guess can currently name (chord only).
	LearnedArcs int `json:"learned_arcs,omitempty"`
	// Neighbors is the zone-neighbor count (CAN only).
	Neighbors int `json:"neighbors,omitempty"`
	// Zones is the number of coordinate zones owned (CAN only).
	Zones int `json:"zones,omitempty"`
	// TableSize is the full routing table's member count (onehop only).
	TableSize int `json:"table_size,omitempty"`
	// Replicas is the number of replicas this node currently hosts.
	Replicas int `json:"replicas"`
	// Counters is the number of valid KTS counters this node holds.
	Counters int `json:"counters"`
	// Durable reports whether the node runs on a write-ahead log.
	Durable bool `json:"durable"`
	// Recovery summarizes the last start's recovery (nil when volatile).
	Recovery *RecoverySummary `json:"recovery,omitempty"`
}

// Status captures the node's current state for /debug/status.
func (n *Node) Status() NodeStatus {
	st := NodeStatus{
		Addr:     string(n.stack.Node.Self().Addr),
		ID:       n.stack.Node.Self().ID.String(),
		Replicas: n.stack.Node.Store().Len(),
		Counters: n.stack.KTS.VCSLen(),
		Durable:  n.wal != nil,
	}
	// The neighborhood view is substrate-specific: chord has a
	// predecessor and successor, CAN zone neighbors, onehop a
	// predecessor plus the full membership table.
	switch r := n.stack.Node.(type) {
	case *chord.Node:
		st.Ring = string(RingChord)
		if pred := r.Predecessor(); !pred.IsZero() {
			st.Predecessor = string(pred.Addr)
		}
		if succ := r.Successor(); !succ.IsZero() {
			st.Successor = string(succ.Addr)
		}
		st.LearnedArcs = r.LearnedArcs()
	case *can.Node:
		st.Ring = string(RingCAN)
		st.Neighbors = len(r.Neighbors())
		st.Zones = len(r.Zones())
	case *onehop.Node:
		st.Ring = string(RingOneHop)
		if pred := r.Predecessor(); !pred.IsZero() {
			st.Predecessor = string(pred.Addr)
		}
		st.TableSize = r.TableSize()
	}
	if n.wal != nil {
		rec := n.wal.Recovered()
		st.Recovery = &RecoverySummary{
			Items:    rec.Items,
			Counters: rec.Counters,
			Records:  rec.Records,
			TornTail: rec.TornTail,
		}
	}
	return st
}

// MetricsServer is a running observability HTTP server: GET /metrics
// serves the Prometheus text exposition, GET /debug/status the
// NodeStatus JSON, and GET /debug/pprof/* the standard Go profiling
// endpoints (CPU, heap, goroutine, block, mutex — see
// docs/OBSERVABILITY.md for usage).
type MetricsServer struct {
	ln  net.Listener
	srv *http.Server
}

// Addr returns the server's listen address (useful with ":0").
func (s *MetricsServer) Addr() string { return s.ln.Addr().String() }

// Close shuts the server down.
func (s *MetricsServer) Close() error { return s.srv.Close() }

// ServeMetrics starts the node's observability HTTP server on listen
// ("127.0.0.1:0" picks a free port; see Addr). The caller owns the
// returned server and must Close it; the node's own Leave/Close do not.
func (n *Node) ServeMetrics(listen string) (*MetricsServer, error) {
	ln, err := net.Listen("tcp", listen)
	if err != nil {
		return nil, fmt.Errorf("dcdht: metrics listen %s: %w", listen, err)
	}
	mux := http.NewServeMux()
	mux.Handle("/metrics", n.obs.Handler())
	mux.HandleFunc("/debug/status", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(n.Status())
	})
	// The standard profiling endpoints, registered explicitly rather
	// than via the net/http/pprof import side effect so they bind to
	// this mux, not http.DefaultServeMux.
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	srv := &http.Server{Handler: mux}
	go srv.Serve(ln)
	return &MetricsServer{ln: ln, srv: srv}, nil
}
