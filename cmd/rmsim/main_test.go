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
	os.Args = append([]string{"rmsim"}, flag.Args()...)
	flag.CommandLine = flag.NewFlagSet("rmsim", flag.ExitOnError)
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
	t.Fatalf("rmsim %v: %v", args, err)
	return 0, ""
}

// TestBadFlagsRejected: a flag value the command cannot honour, or a flag
// the chosen mode does not read, exits non-zero with a message naming it,
// instead of running something else or panicking inside the simulator.
func TestBadFlagsRejected(t *testing.T) {
	for _, tc := range []struct {
		args []string
		code int
		msg  string
	}{
		{[]string{"-chaos", "-routers", "40", "-packets", "5", "-simworkers", "-1"}, 2, "flag provided but not defined: -chaos"},
		{[]string{"-routers", "40", "-packets", "5", "-jitter", "1e308"}, 1, "protocol: bad config: Jitter = 1e+308"},
		{[]string{"-routers", "40", "-packets", "5", "-simworkers", "-1"}, 1, "protocol: bad config: SimWorkers = -1"},
		{[]string{"-routers", "40", "-packets", "0"}, 1, "protocol: bad config: Packets = 0"},
		{[]string{"-routers", "40", "-packets", "5", "-interval", "0"}, 1, "protocol: bad config: Interval = 0"},
		{[]string{"-routers", "40", "-packets", "5", "-trace", "/dev/full"}, 1, "rmsim: -trace: write /dev/full: no space left on device"},
		{[]string{"-scaling", "-sizes", "1000", "-domainsize", "-5"}, 1, "experiment: bad scaling sweep: DomainClients = -5"},
		{[]string{"-scaling", "-sizes", "1000", "-simworkers", "-1"}, 1, "experiment: bad scaling sweep: SimWorkers = -1"},
		{[]string{"-scaling", "-sizes", "200", "-packets", "0", "-jitter", "-5"}, 2, "rmsim: -jitter is a single-run flag; -scaling does not read it"},
		{[]string{"-sizes", "200", "-routers", "40", "-packets", "5"}, 2, "rmsim: -sizes is read only with -scaling"},
		{[]string{"-routers", "40", "-packets", "5", "-protocol", "all", "-parallel", "-3"}, 2, "rmsim: bad -parallel -3"},
		{[]string{"-routers", "40", "-packets", "5", "-protocol", "all", "-parallel", "0"}, 2, "rmsim: bad -parallel 0"},
	} {
		code, stderr := runCommand(t, tc.args...)
		if code != tc.code || !strings.Contains(stderr, tc.msg) {
			t.Errorf("rmsim %s: exit %d, stderr %q; want exit %d and %q",
				strings.Join(tc.args, " "), code, stderr, tc.code, tc.msg)
		}
	}
}
