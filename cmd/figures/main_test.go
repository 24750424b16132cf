package main

import (
	"bytes"
	"errors"
	"flag"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestRunMain is the command itself when runCommand re-executes the test
// binary with "--" and the command's arguments; in a plain test run it has
// no arguments and does nothing.
func TestRunMain(t *testing.T) {
	if flag.NArg() == 0 {
		return
	}
	os.Args = append([]string{"figures"}, flag.Args()...)
	flag.CommandLine = flag.NewFlagSet("figures", flag.ExitOnError)
	main()
	os.Exit(0)
}

// runCommand runs the command with args in a child process and returns its
// exit code and stderr.
func runCommand(t *testing.T, args ...string) (int, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], append([]string{"-test.run=^TestRunMain$", "--"}, args...)...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	switch {
	case err == nil:
		return 0, stderr.String()
	case errors.As(err, &exit):
		return exit.ExitCode(), stderr.String()
	}
	t.Fatalf("figures %v: %v", args, err)
	return 0, ""
}

// TestBadFlagsRejected: a flag value the sweeps cannot honour exits
// non-zero with a message naming the flag, instead of running something
// else.
func TestBadFlagsRejected(t *testing.T) {
	for _, tc := range []struct {
		args []string
		code int
		msg  string
	}{
		{[]string{"-fig", "5", "-reps", "-2", "-packets", "5"}, 2, "figures: bad -reps -2"},
		{[]string{"-fig", "5", "-reps", "0", "-packets", "5"}, 2, "figures: bad -reps 0"},
		{[]string{"-fig", "5", "-packets", "5", "-simworkers", "-1", "-domainsize", "-3"}, 2, "flag provided but not defined: -simworkers"},
		{[]string{"-fig", "scaling"}, 2, `figures: unknown -fig "scaling"`},
		{[]string{"-fig", "churn", "-packets", "0"}, 1, "protocol: bad config: Packets = 0"},
		{[]string{"-fig", "churn", "-packets", "5", "-interval", "0"}, 1, "protocol: bad config: Interval = 0"},
		{[]string{"-fig", "churn", "-packets", "5", "-parallel", "-2"}, 2, "figures: bad -parallel -2"},
		{[]string{"-fig", "churn", "-packets", "5", "-parallel", "0"}, 2, "figures: bad -parallel 0"},
	} {
		code, stderr := runCommand(t, tc.args...)
		if code != tc.code || !strings.Contains(stderr, tc.msg) {
			t.Errorf("figures %s: exit %d, stderr %q; want exit %d and %q",
				strings.Join(tc.args, " "), code, stderr, tc.code, tc.msg)
		}
	}
}
