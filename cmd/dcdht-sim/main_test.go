package main

import (
	"bytes"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain lets the test binary impersonate the command: when the guard
// variable is set, run main() with the test binary's own arguments, so
// tests observe real exit codes and output.
func TestMain(m *testing.M) {
	if os.Getenv("DCDHT_SIM_BE_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runMain re-executes the test binary as dcdht-sim and returns its
// stdout, stderr and exit code.
func runMain(t *testing.T, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "DCDHT_SIM_BE_MAIN=1")
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

// TestBadInputExitsTwo: a population, replication factor, working set,
// rate or failure share the simulation cannot run exits 2 and names the
// flag, before anything runs; so does a flag that no longer exists.
func TestBadInputExitsTwo(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
		want string // on stderr
	}{
		{"no peers", []string{"-peers", "0"}, "bad -peers"},
		{"no replicas", []string{"-replicas", "0"}, "bad -replicas"},
		{"negative keys", []string{"-keys", "-1"}, "bad -keys"},
		{"negative queries", []string{"-queries", "-1"}, "bad -queries"},
		{"negative churn", []string{"-churn", "-0.5"}, "bad -churn"},
		{"fail above one", []string{"-fail", "3"}, "bad -fail"},
		{"negative fail", []string{"-fail", "-0.1"}, "bad -fail"},
		{"negative updates", []string{"-updates", "-1"}, "bad -updates"},
		{"unknown ring", []string{"-ring", "pastry"}, "bad -ring"},
		{"removed flag", []string{"-republish", "10s"}, "flag provided but not defined: -republish"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			stdout, stderr, code := runMain(t, append([]string{"-peers", "8", "-duration", "1m"}, tc.args...)...)
			if code != 2 {
				t.Errorf("exit %d, want 2 (stderr %q)", code, stderr)
			}
			if stdout != "" {
				t.Errorf("a simulation ran: stdout %q", stdout)
			}
			if !strings.Contains(stderr, tc.want) {
				t.Errorf("stderr %q does not say %q", stderr, tc.want)
			}
		})
	}
}

// TestSmallRunSucceeds: the smallest sensible run exits 0 and reports,
// and its report is a function of the seed: a second run prints the
// same bytes (no wall-clock figure rides along).
func TestSmallRunSucceeds(t *testing.T) {
	args := []string{"-peers", "8", "-replicas", "3", "-keys", "2",
		"-duration", "2m", "-queries", "2", "-churn", "0"}
	stdout, stderr, code := runMain(t, args...)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	if !strings.Contains(stdout, "failed queries") {
		t.Errorf("no report on stdout: %q", stdout)
	}
	if again, _, _ := runMain(t, args...); again != stdout {
		t.Errorf("same-seed runs printed different reports:\n%s\n%s", stdout, again)
	}
}
