// Command promcheck is the metrics smoke gate run by CI
// (scripts/check_metrics.sh): it starts a real dcdht-node with
// -metrics-addr, drives a put and a get through the one-shot CLI
// client, scrapes GET /metrics and GET /debug/status, and fails unless
//
//   - the exposition parses as strict Prometheus text format 0.0.4
//     (every series belongs to a declared # TYPE family, histogram
//     families expose cumulative le buckets plus _sum/_count, no
//     duplicate series);
//   - the core families from every instrumented layer are present:
//     operations, KTS, chord routing, repair, the WAL-backed store and
//     the TCP transport;
//   - the counters prove the ops actually flowed through the node —
//     connections were accepted, WAL records were appended, and a
//     timestamp grant (or its handoff arrival) reached this peer;
//   - /debug/status returns the documented JSON with the node's own
//     address, a durable-recovery summary, and the replicas and
//     counters the departed client handed off.
//
// Usage: promcheck -node path/to/dcdht-node [-keep-data dir]
// Exit status 0 when the node passes; 1 with diagnostics otherwise.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// stopNode kills the node under test; fail runs it because os.Exit
// skips deferred calls and would leave the node serving.
var stopNode = func() {}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "promcheck: "+format+"\n", args...)
	stopNode()
	os.Exit(1)
}

// freePort reserves an ephemeral localhost port and releases it for the
// node to claim. The tiny reuse race is acceptable in a smoke gate.
func freePort() int {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fail("reserving port: %v", err)
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port
}

func main() {
	nodeBin := flag.String("node", "", "path to the dcdht-node binary (required)")
	keepData := flag.String("keep-data", "", "use this data directory instead of a throwaway one")
	flag.Parse()
	if *nodeBin == "" {
		fail("-node is required")
	}

	dataDir := *keepData
	if dataDir == "" {
		d, err := os.MkdirTemp("", "promcheck-*")
		if err != nil {
			fail("temp dir: %v", err)
		}
		defer os.RemoveAll(d)
		dataDir = filepath.Join(d, "data")
	}

	listen := fmt.Sprintf("127.0.0.1:%d", freePort())
	metrics := fmt.Sprintf("127.0.0.1:%d", freePort())

	serve := exec.Command(*nodeBin, "serve",
		"-listen", listen,
		"-metrics-addr", metrics,
		"-data-dir", dataDir,
		"-replicas", "3",
		"-repair", "2s", "-read-repair",
		"-log-format", "json")
	serve.Stdout = os.Stderr
	serve.Stderr = os.Stderr
	if err := serve.Start(); err != nil {
		fail("starting node: %v", err)
	}
	stopNode = func() {
		_ = serve.Process.Kill()
		_, _ = serve.Process.Wait()
	}
	defer stopNode()

	statusURL := "http://" + metrics + "/debug/status"
	metricsURL := "http://" + metrics + "/metrics"
	waitReady(statusURL)

	// One put and one get through the one-shot client; each joins the
	// ring as an ephemeral peer and leaves gracefully, handing its
	// replicas and counters off to the serve node — so by the time we
	// scrape, this node hosts the key no matter where the hashes landed.
	runClient(*nodeBin, "put", "-via", listen, "-replicas", "3", "smoke-key", "smoke-value")
	runClient(*nodeBin, "get", "-via", listen, "-replicas", "3", "smoke-key")

	text, contentType := scrape(metricsURL)
	if !strings.HasPrefix(contentType, "text/plain") {
		fail("/metrics Content-Type = %q, want text/plain", contentType)
	}
	families, values := parseExposition(text)

	required := []string{
		"dcdht_op_duration_seconds",
		"dcdht_op_verdicts_total",
		"dcdht_op_msgs_total",
		"dcdht_ops_inflight",
		"dcdht_ums_replicate_total",
		"dcdht_ums_retrieve_total",
		"dcdht_kts_grants_total",
		"dcdht_kts_counters",
		"dcdht_chord_lookup_hops",
		"dcdht_chord_lookups_total",
		"dcdht_chord_learned_arcs",
		"dcdht_dht_guess_total",
		"dcdht_repair_rounds_total",
		"dcdht_store_items",
		"dcdht_store_wal_appends_total",
		"dcdht_store_wal_fsyncs_total",
		"dcdht_net_calls_total",
		"dcdht_net_conns_accepted_total",
	}
	for _, name := range required {
		if _, ok := families[name]; !ok {
			fail("/metrics missing required family %s", name)
		}
	}

	// Owner resolutions are accounted by what the guess rested on; a
	// ring of one names nobody, so the serve node's first resolutions
	// are declined ones.
	if !strings.Contains(text, `dcdht_dht_guess_total{outcome="declined",source="none"}`) {
		fail("dcdht_dht_guess_total has no outcome=\"declined\",source=\"none\" series")
	}
	// Puts whose owners were resolved while gen_ts was outstanding are a
	// mode of the replicate family, exported from the start like the
	// other two.
	for _, mode := range []string{"serial", "overlapped", "prefetched"} {
		if !strings.Contains(text, `dcdht_ums_replicate_total{mode="`+mode+`"}`) {
			fail("dcdht_ums_replicate_total has no mode=%q series", mode)
		}
	}

	// Activity guaranteed by construction: the client joined (accepted
	// connection), its leave handed replicas and counters to this node
	// (WAL appends, hosted items), and the key's timestamp either was
	// granted here or arrived in the counter handoff.
	if values["dcdht_net_conns_accepted_total"] < 1 {
		fail("no connections accepted — did the client reach the node?")
	}
	if values["dcdht_store_wal_appends_total"] < 1 {
		fail("no WAL appends — durable store saw no writes")
	}
	if values["dcdht_store_items"] < 1 {
		fail("no hosted replicas after client handoff")
	}
	if values["dcdht_kts_grants_total"]+values["dcdht_kts_direct_arrivals_total"] < 1 {
		fail("no timestamp grant or counter arrival on this node")
	}

	checkStatus(statusURL, listen)

	// A graceful shutdown must leave cleanly under SIGTERM.
	if err := serve.Process.Signal(syscall.SIGTERM); err != nil {
		fail("signaling node: %v", err)
	}
	done := make(chan error, 1)
	go func() { done <- serve.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			fail("node exited with error after SIGTERM: %v", err)
		}
	case <-time.After(15 * time.Second):
		fail("node did not exit within 15s of SIGTERM")
	}

	fmt.Printf("promcheck clean: %d families, exposition parses, status OK\n", len(families))
}

func waitReady(statusURL string) {
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(statusURL)
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return
			}
		}
		time.Sleep(100 * time.Millisecond)
	}
	fail("node metrics endpoint not ready within 15s")
}

func runClient(nodeBin, op string, args ...string) {
	cmd := exec.Command(nodeBin, append([]string{op}, args...)...)
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		fail("client %s failed: %v", op, err)
	}
}

func scrape(url string) (body, contentType string) {
	resp, err := http.Get(url)
	if err != nil {
		fail("scraping %s: %v", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		fail("scraping %s: HTTP %d", url, resp.StatusCode)
	}
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		fail("reading %s: %v", url, err)
	}
	return string(b), resp.Header.Get("Content-Type")
}

// parseExposition validates the text strictly and returns the declared
// families (name → type) and, for plain counter/gauge series, the sum
// of sample values per family name.
func parseExposition(text string) (families map[string]string, values map[string]float64) {
	families = make(map[string]string)
	values = make(map[string]float64)
	seen := make(map[string]bool) // duplicate-series guard: name+labels
	lines := strings.Split(text, "\n")
	for i, line := range lines {
		if line == "" {
			continue
		}
		lineNo := i + 1
		if strings.HasPrefix(line, "# HELP ") {
			if len(strings.SplitN(strings.TrimPrefix(line, "# HELP "), " ", 2)) < 1 {
				fail("line %d: malformed HELP: %s", lineNo, line)
			}
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			parts := strings.Fields(strings.TrimPrefix(line, "# TYPE "))
			if len(parts) != 2 {
				fail("line %d: malformed TYPE: %s", lineNo, line)
			}
			name, kind := parts[0], parts[1]
			if kind != "counter" && kind != "gauge" && kind != "histogram" {
				fail("line %d: unknown metric type %q", lineNo, kind)
			}
			if _, dup := families[name]; dup {
				fail("line %d: duplicate TYPE for %s", lineNo, name)
			}
			families[name] = kind
			continue
		}
		if strings.HasPrefix(line, "#") {
			fail("line %d: unexpected comment: %s", lineNo, line)
		}

		name, labels, value := parseSeries(line, lineNo)
		if seen[name+labels] {
			fail("line %d: duplicate series %s%s", lineNo, name, labels)
		}
		seen[name+labels] = true

		base := name
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			trimmed := strings.TrimSuffix(name, suffix)
			if trimmed != name && families[trimmed] == "histogram" {
				base = trimmed
				break
			}
		}
		kind, ok := families[base]
		if !ok {
			fail("line %d: series %s has no TYPE declaration", lineNo, name)
		}
		if kind == "histogram" && base == name {
			fail("line %d: bare series for histogram family %s", lineNo, name)
		}
		if kind != "histogram" {
			values[name] += value
		}
	}
	// Every histogram family needs the +Inf bucket and _sum/_count for
	// each series set it exposed.
	for name, kind := range families {
		if kind != "histogram" {
			continue
		}
		hasInf, hasSum, hasCount := false, false, false
		for key := range seen {
			if strings.HasPrefix(key, name+"_bucket") && strings.Contains(key, `le="+Inf"`) {
				hasInf = true
			}
			if strings.HasPrefix(key, name+"_sum") {
				hasSum = true
			}
			if strings.HasPrefix(key, name+"_count") {
				hasCount = true
			}
		}
		if !hasInf || !hasSum || !hasCount {
			fail("histogram %s missing +Inf bucket, _sum or _count", name)
		}
	}
	return families, values
}

// parseSeries splits `name{labels} value` (labels optional), validating
// the label syntax and that the value parses as a float.
func parseSeries(line string, lineNo int) (name, labels string, value float64) {
	rest := line
	if i := strings.IndexAny(rest, "{ "); i < 0 {
		fail("line %d: malformed series: %s", lineNo, line)
	} else {
		name, rest = rest[:i], rest[i:]
	}
	if strings.HasPrefix(rest, "{") {
		end := strings.Index(rest, "} ")
		if end < 0 {
			fail("line %d: unterminated labels: %s", lineNo, line)
		}
		labels, rest = rest[:end+1], rest[end+1:]
		inner := labels[1 : len(labels)-1]
		for _, pair := range splitLabelPairs(inner) {
			eq := strings.Index(pair, "=")
			if eq <= 0 || !strings.HasPrefix(pair[eq+1:], `"`) || !strings.HasSuffix(pair, `"`) {
				fail("line %d: malformed label pair %q", lineNo, pair)
			}
		}
	}
	rest = strings.TrimPrefix(rest, " ")
	v, err := strconv.ParseFloat(rest, 64)
	if err != nil {
		fail("line %d: sample value %q: %v", lineNo, rest, err)
	}
	return name, labels, v
}

// splitLabelPairs splits `k1="v1",k2="v2"` on commas outside quotes.
func splitLabelPairs(s string) []string {
	var pairs []string
	start, inQuote := 0, false
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '\\':
			if inQuote {
				i++
			}
		case '"':
			inQuote = !inQuote
		case ',':
			if !inQuote {
				pairs = append(pairs, s[start:i])
				start = i + 1
			}
		}
	}
	if start < len(s) {
		pairs = append(pairs, s[start:])
	}
	return pairs
}

func checkStatus(url, wantAddr string) {
	resp, err := http.Get(url)
	if err != nil {
		fail("fetching status: %v", err)
	}
	defer resp.Body.Close()
	var st struct {
		Addr     string `json:"addr"`
		ID       string `json:"id"`
		Replicas int    `json:"replicas"`
		Counters int    `json:"counters"`
		Durable  bool   `json:"durable"`
		Recovery *struct {
			Records int `json:"records"`
		} `json:"recovery"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		fail("decoding status JSON: %v", err)
	}
	if st.Addr != wantAddr {
		fail("status addr = %q, want %q", st.Addr, wantAddr)
	}
	if st.ID == "" {
		fail("status reports empty node ID")
	}
	if st.Replicas < 1 {
		fail("status reports no hosted replicas after handoff")
	}
	if st.Counters < 1 {
		fail("status reports no KTS counters after handoff")
	}
	if !st.Durable || st.Recovery == nil {
		fail("durable node must report durable=true with a recovery summary")
	}
}
