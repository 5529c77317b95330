package main

import (
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain lets a test re-run this binary as the figures command itself,
// so exit codes and output are checked end to end.
func TestMain(m *testing.M) {
	if os.Getenv("FIGURES_TEST_RUN_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// An -only name that matches no artifact is a usage error that lists the
// valid names, not a silent successful run that prints nothing.
func TestUnknownOnlyIsUsageError(t *testing.T) {
	cmd := exec.Command(os.Args[0], "-only", "fig9")
	cmd.Env = append(os.Environ(), "FIGURES_TEST_RUN_MAIN=1")
	var stderr strings.Builder
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 2 {
		t.Fatalf("figures -only fig9: err = %v, want exit status 2 (stdout %q)", err, out)
	}
	if len(out) != 0 {
		t.Errorf("figures -only fig9 printed to stdout: %q", out)
	}
	for _, name := range []string{"table1", "fig2", "e9", "pf", "synth"} {
		if !strings.Contains(stderr.String(), name) {
			t.Errorf("usage error does not list artifact %q: %q", name, stderr.String())
		}
	}
}
