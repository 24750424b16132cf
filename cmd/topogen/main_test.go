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
	os.Args = append([]string{"topogen"}, flag.Args()...)
	flag.CommandLine = flag.NewFlagSet("topogen", flag.ExitOnError)
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
	t.Fatalf("topogen %v: %v", args, err)
	return 0, ""
}

// TestBadFlagsRejected: a flag value the generator cannot honour exits
// non-zero with a message naming it, instead of writing some other
// topology.
func TestBadFlagsRejected(t *testing.T) {
	for _, tc := range []struct {
		args []string
		code int
		msg  string
	}{
		{[]string{"-routers", "1"}, 1, "topogen: topology: need at least 2 routers, got 1"},
		{[]string{"-loss", "NaN"}, 1, "topogen: topology: loss probability NaN out of [0,1]"},
		{[]string{"-loss", "2"}, 1, "topogen: topology: loss probability 2 out of [0,1]"},
		{[]string{"-loss", "-0.1"}, 1, "topogen: topology: loss probability -0.1 out of [0,1]"},
		{[]string{"-model", "bogus"}, 1, `topogen: unknown model "bogus"`},
		{[]string{"-tree", "bogus"}, 1, `topogen: unknown tree kind "bogus"`},
		{[]string{"-format", "bogus"}, 1, `topogen: unknown format "bogus"`},
	} {
		code, stderr := runCommand(t, tc.args...)
		if code != tc.code || !strings.Contains(stderr, tc.msg) {
			t.Errorf("topogen %s: exit %d, stderr %q; want exit %d and %q",
				strings.Join(tc.args, " "), code, stderr, tc.code, tc.msg)
		}
	}
}
