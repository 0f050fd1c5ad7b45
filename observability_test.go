package dcdht

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"
)

// TestNodeMetricsEndpoint drives real operations through a live TCP
// node and asserts the observability surface end to end: /metrics
// serves a Prometheus exposition carrying the core families with
// non-zero op activity, and /debug/status reports the node's ring
// position, holdings and recovery summary.
func TestNodeMetricsEndpoint(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	n := startDurable(t, "127.0.0.1:0", t.TempDir())
	n.CreateRing()
	defer n.Leave()

	srv, err := n.ServeMetrics("127.0.0.1:0")
	if err != nil {
		t.Fatalf("ServeMetrics: %v", err)
	}
	defer srv.Close()

	if _, err := n.Put(ctx, "obs-key", []byte("v1")); err != nil {
		t.Fatalf("put: %v", err)
	}
	if _, err := n.Get(ctx, "obs-key"); err != nil {
		t.Fatalf("get: %v", err)
	}

	resp, err := http.Get("http://" + srv.Addr() + "/metrics")
	if err != nil {
		t.Fatalf("scrape: %v", err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("read exposition: %v", err)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("unexpected content type %q", ct)
	}
	text := string(body)
	for _, family := range []string{
		"dcdht_op_duration_seconds",
		"dcdht_op_verdicts_total",
		"dcdht_op_msgs_total",
		"dcdht_ums_replicate_total",
		"dcdht_ums_retrieve_total",
		"dcdht_kts_grants_total",
		"dcdht_kts_cache_hits_total",
		"dcdht_chord_lookup_hops",
		"dcdht_store_wal_appends_total",
		"dcdht_net_calls_total",
	} {
		if !strings.Contains(text, "# TYPE "+family) {
			t.Errorf("exposition missing family %s", family)
		}
	}
	// Real activity must show: one put and one get went through UMS.
	if !strings.Contains(text, `dcdht_op_duration_seconds_count{alg="ums",level="",op="put"} 1`) {
		t.Errorf("put latency not recorded:\n%s", grepLines(text, "dcdht_op_duration_seconds_count"))
	}
	if !strings.Contains(text, `dcdht_op_duration_seconds_count{alg="ums",level="current",op="get"} 1`) {
		t.Errorf("get latency not recorded:\n%s", grepLines(text, "dcdht_op_duration_seconds_count"))
	}
	if !strings.Contains(text, `dcdht_ums_replicate_total{mode="prefetched"}`) {
		t.Errorf("no prefetched replicate mode:\n%s", grepLines(text, "dcdht_ums_replicate_total"))
	}
	if !strings.Contains(text, `dcdht_kts_grants_total 1`) {
		t.Errorf("KTS grant not counted:\n%s", grepLines(text, "dcdht_kts_grants_total"))
	}
	if !strings.Contains(text, `dcdht_op_verdicts_total{level="current",verdict="proven"} 1`) {
		t.Errorf("currency verdict not counted:\n%s", grepLines(text, "dcdht_op_verdicts_total"))
	}

	// WAL activity: FsyncAlways means every append fsynced.
	if strings.Contains(text, "dcdht_store_wal_appends_total 0") {
		t.Errorf("WAL appends stayed zero:\n%s", grepLines(text, "dcdht_store_wal"))
	}

	// /debug/status: ring position, holdings, recovery summary.
	resp, err = http.Get("http://" + srv.Addr() + "/debug/status")
	if err != nil {
		t.Fatalf("status: %v", err)
	}
	var st NodeStatus
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("decode status: %v", err)
	}
	if st.Addr != n.Addr() {
		t.Errorf("status addr %q, node addr %q", st.Addr, n.Addr())
	}
	if st.ID == "" {
		t.Error("status missing ring ID")
	}
	if st.Replicas == 0 {
		t.Error("status reports no hosted replicas after a put")
	}
	if st.Counters == 0 {
		t.Error("status reports no KTS counters after a put")
	}
	if !st.Durable || st.Recovery == nil {
		t.Errorf("durable node must report a recovery summary: %+v", st)
	}

	// /debug/pprof: the profiling endpoints ride on the same mux. The
	// index must list profiles and a heap snapshot must download.
	resp, err = http.Get("http://" + srv.Addr() + "/debug/pprof/")
	if err != nil {
		t.Fatalf("pprof index: %v", err)
	}
	body, err = io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("pprof index: status %d err %v", resp.StatusCode, err)
	}
	if !strings.Contains(string(body), "goroutine") {
		t.Error("pprof index does not list the goroutine profile")
	}
	resp, err = http.Get("http://" + srv.Addr() + "/debug/pprof/heap")
	if err != nil {
		t.Fatalf("pprof heap: %v", err)
	}
	heap, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK || len(heap) == 0 {
		t.Fatalf("pprof heap: status %d, %d bytes, err %v", resp.StatusCode, len(heap), err)
	}
}

// grepLines extracts the exposition lines containing substr, for
// focused failure messages.
func grepLines(text, substr string) string {
	var out []string
	for _, line := range strings.Split(text, "\n") {
		if strings.Contains(line, substr) {
			out = append(out, line)
		}
	}
	return strings.Join(out, "\n")
}
