package main

import (
	"bufio"
	"bytes"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strings"
	"testing"
	"time"

	dcdht "repro"
)

// TestMain lets the test binary impersonate the command: when the guard
// variable is set, run main() with the test binary's own arguments.
// Tests re-exec themselves with the guard set to observe real exit
// codes and output without building the command separately.
func TestMain(m *testing.M) {
	if os.Getenv("DCDHT_GATEWAY_BE_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runMain re-executes the test binary as dcdht-gateway and returns its
// combined stderr, stdout and exit code.
func runMain(t *testing.T, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "DCDHT_GATEWAY_BE_MAIN=1")
	var outBuf, errBuf bytes.Buffer
	cmd.Stdout, cmd.Stderr = &outBuf, &errBuf
	err := cmd.Run()
	code = 0
	if err != nil {
		ee, ok := err.(*exec.ExitError)
		if !ok {
			t.Fatalf("run %v: %v", args, err)
		}
		code = ee.ExitCode()
	}
	return outBuf.String(), errBuf.String(), code
}

func TestUsageExitsTwo(t *testing.T) {
	_, stderr, code := runMain(t)
	if code != 2 {
		t.Errorf("no args: exit %d, want 2", code)
	}
	if !strings.Contains(stderr, "usage: dcdht-gateway serve") {
		t.Errorf("no args stderr = %q, want usage line", stderr)
	}
	if _, stderr, code = runMain(t, "sideways"); code != 2 || !strings.Contains(stderr, "usage:") {
		t.Errorf("bad subcommand: exit %d stderr %q, want 2 + usage", code, stderr)
	}
}

func TestFlagHelp(t *testing.T) {
	_, stderr, code := runMain(t, "serve", "-h")
	if code != 0 {
		t.Errorf("-h: exit %d, want 0 (flag.ExitOnError help)", code)
	}
	for _, flagName := range []string{"-listen", "-backends", "-replicas", "-cooldown", "-log-format"} {
		if !strings.Contains(stderr, flagName) {
			t.Errorf("-h output missing %s:\n%s", flagName, stderr)
		}
	}
}

func TestBadBackendsExitsTwo(t *testing.T) {
	cases := []struct{ name, backends string }{
		{"empty", ""},
		{"blank element", "127.0.0.1:4000,,127.0.0.1:4001"},
		{"no port", "127.0.0.1"},
		{"garbage", "not an address"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, stderr, code := runMain(t, "serve", "-backends", tc.backends)
			if code != 2 {
				t.Errorf("-backends %q: exit %d, want 2 (stderr: %s)", tc.backends, code, stderr)
			}
			if !strings.Contains(stderr, "bad -backends") {
				t.Errorf("-backends %q stderr = %q, want bad -backends diagnostic", tc.backends, stderr)
			}
		})
	}
	// Unknown flags are also usage errors (flag.ExitOnError).
	if _, _, code := runMain(t, "serve", "-no-such-flag"); code != 2 {
		t.Errorf("unknown flag: exit %d, want 2", code)
	}
	if _, stderr, code := runMain(t, "serve", "-backends", "127.0.0.1:1", "-log-format", "yaml"); code != 2 ||
		!strings.Contains(stderr, "log-format") {
		t.Errorf("bad -log-format: exit %d stderr %q, want 2", code, stderr)
	}
}

func TestOccupiedListenExitsOne(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	// The listener binds before any ring contact, so the syntactically
	// valid backend address is never dialed.
	_, stderr, code := runMain(t, "serve",
		"-listen", ln.Addr().String(), "-backends", "127.0.0.1:1")
	if code != 1 {
		t.Errorf("occupied -listen: exit %d, want 1 (stderr: %s)", code, stderr)
	}
	if !strings.Contains(stderr, "listen failed") {
		t.Errorf("occupied -listen stderr = %q, want listen failed diagnostic", stderr)
	}
}

// TestServeEndToEnd boots a tiny ring in-process, re-execs the command
// against it, and drives one PUT/GET through the subprocess's HTTP
// front-end.
func TestServeEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess ring smoke in -short mode")
	}
	cfg := dcdht.NodeConfig{
		Replicas:       3,
		Seed:           17,
		StabilizeEvery: 100 * time.Millisecond,
		GraceDelay:     20 * time.Millisecond,
	}
	first, err := dcdht.StartNode("127.0.0.1:0", cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer first.Close()
	first.CreateRing()
	second, err := dcdht.StartNode("127.0.0.1:0", cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer second.Close()
	if err := second.Join(first.Addr()); err != nil {
		t.Fatal(err)
	}
	time.Sleep(500 * time.Millisecond)

	cmd := exec.Command(os.Args[0], "serve",
		"-listen", "127.0.0.1:0", "-replicas", "3",
		"-backends", first.Addr()+","+second.Addr())
	cmd.Env = append(os.Environ(), "DCDHT_GATEWAY_BE_MAIN=1")
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		cmd.Process.Signal(os.Interrupt)
		cmd.Wait()
	}()

	// The command prints its bound address before joining the ring.
	var addr string
	if _, err := fmt.Fscanf(bufio.NewReader(stdout), "listening %s\n", &addr); err != nil {
		t.Fatalf("reading listen line: %v", err)
	}

	// The listener is up immediately; the gateway handler attaches
	// after the backends join, so retry until the first 200.
	base := "http://" + addr
	client := &http.Client{Timeout: 5 * time.Second}
	deadline := time.Now().Add(15 * time.Second)
	var resp *http.Response
	for {
		req, _ := http.NewRequest(http.MethodPut, base+"/v1/kv/cmd-key", strings.NewReader("via-subprocess"))
		resp, err = client.Do(req)
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("gateway never came up: %v", err)
		}
		time.Sleep(200 * time.Millisecond)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("PUT status %d", resp.StatusCode)
	}
	resp, err = client.Get(base + "/v1/kv/cmd-key")
	if err != nil {
		t.Fatal(err)
	}
	var body bytes.Buffer
	body.ReadFrom(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(body.String(), "proven") {
		t.Errorf("GET status %d body %s, want 200 with proven currency", resp.StatusCode, body.String())
	}
}
