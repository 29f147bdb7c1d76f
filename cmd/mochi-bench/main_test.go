package main

import (
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain lets a test re-run this binary as mochi-bench itself.
func TestMain(m *testing.M) {
	if os.Getenv("MOCHI_BENCH_RUN_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// A typo in -only must fail the run and name the valid IDs, not run
// nothing and exit 0.
func TestUnknownExperimentExitsTwo(t *testing.T) {
	cmd := exec.Command(os.Args[0], "-only", "E99")
	cmd.Env = append(os.Environ(), "MOCHI_BENCH_RUN_MAIN=1")
	out, err := cmd.CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 2 {
		t.Fatalf("mochi-bench -only E99: err %v, want exit status 2; output:\n%s", err, out)
	}
	for _, want := range []string{"E99", "E1,", "E16"} {
		if !strings.Contains(string(out), want) {
			t.Fatalf("output lacks %q:\n%s", want, out)
		}
	}
}
