package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestMain lets the test binary impersonate the command: when the guard
// variable is set, run main() with the test binary's own arguments, so
// tests observe real exit codes and output.
func TestMain(m *testing.M) {
	if os.Getenv("DCDHT_BENCH_BE_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runMain re-executes the test binary as dcdht-bench in dir and returns
// its stdout, stderr and exit code.
func runMain(t *testing.T, dir string, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), "DCDHT_BENCH_BE_MAIN=1")
	var outBuf, errBuf bytes.Buffer
	cmd.Stdout, cmd.Stderr = &outBuf, &errBuf
	if err := cmd.Run(); err != nil {
		ee, ok := err.(*exec.ExitError)
		if !ok {
			t.Fatalf("run %v: %v", args, err)
		}
		code = ee.ExitCode()
	}
	return outBuf.String(), errBuf.String(), code
}

// TestBadSetExitsTwo: an unknown -set key, a malformed value or an
// unknown figure exits 2 before anything runs, and a bad -set names the
// figure's parameters.
func TestBadSetExitsTwo(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
		want []string
	}{
		{"unknown key", []string{"-figure", "perf", "-set", "bogus=1"}, []string{"bogus", "ops=", "macro_ops="}},
		{"malformed value", []string{"-figure", "perf", "-set", "macro_ops=lots"}, []string{"macro_ops", "macro_concurrency="}},
		{"removed key", []string{"-figure", "perf", "-set", "strip_timing=true"}, []string{`unknown parameter "strip_timing"`}},
		{"key of another figure", []string{"-figure", "gateway,lookup", "-set", "samples=3"}, []string{"figure gateway", "peers=", "ops="}},
		{"unknown figure", []string{"-figure", "13"}, []string{`unknown figure "13"`}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			stdout, stderr, code := runMain(t, t.TempDir(), tc.args...)
			if code != 2 {
				t.Errorf("exit %d, want 2 (stderr %q)", code, stderr)
			}
			if stdout != "" {
				t.Errorf("a figure ran: stdout %q", stdout)
			}
			for _, w := range tc.want {
				if !strings.Contains(stderr, w) {
					t.Errorf("stderr %q does not name %q", stderr, w)
				}
			}
		})
	}
}

// TestJSONOnlyOnRequest: without -json a run writes no JSON into the
// working directory; with -json DIR the figure's document lands in DIR.
func TestJSONOnlyOnRequest(t *testing.T) {
	dir := t.TempDir()
	toy := []string{"-figure", "gateway", "-quiet", "-set", "peers=12", "-set", "ops=40"}
	if _, stderr, code := runMain(t, dir, toy...); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 0 {
		t.Fatalf("a run without -json wrote %v", entries)
	}
	if _, stderr, code := runMain(t, dir, append(toy, "-json", "out")...); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	if _, err := os.Stat(filepath.Join(dir, "out", "BENCH_gateway.json")); err != nil {
		t.Fatalf("-json out: %v", err)
	}
}
