package main

import (
	"strings"
	"testing"
)

// TestRunExitCodes pins the shared cmd convention: unknown -table and
// unknown -format values are usage errors (2) and are rejected before
// any experiment runs.
func TestRunExitCodes(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-table", "nope"}, &out, &errOut); code != 2 {
		t.Fatalf("unknown table: exit %d, want 2 (stderr: %s)", code, errOut.String())
	}
	if !strings.Contains(errOut.String(), "unknown table") {
		t.Fatalf("stderr missing complaint: %q", errOut.String())
	}

	// The lift-reuse table is gone (netperf paper-cli measures the lift
	// stage): its name is an unknown table.
	out.Reset()
	errOut.Reset()
	if code := run([]string{"-table", "lift"}, &out, &errOut); code != 2 {
		t.Fatalf("-table lift: exit %d, want 2 (stderr: %s)", code, errOut.String())
	}
	if out.Len() != 0 {
		t.Fatalf("-table lift ran an experiment anyway: %q", out.String())
	}

	out.Reset()
	errOut.Reset()
	if code := run([]string{"-format", "yaml", "-table", "seed"}, &out, &errOut); code != 2 {
		t.Fatalf("unknown format: exit %d, want 2 (stderr: %s)", code, errOut.String())
	}
	if !strings.Contains(errOut.String(), "unknown format") {
		t.Fatalf("stderr missing complaint: %q", errOut.String())
	}
	if out.Len() != 0 {
		t.Fatalf("usage error ran an experiment anyway: %q", out.String())
	}

	out.Reset()
	errOut.Reset()
	if code := run([]string{"-no-such-flag"}, &out, &errOut); code != 2 {
		t.Fatalf("bad flag: exit %d, want 2", code)
	}

	// The JSON file writers are gone (-table ... -format json prints the
	// same measurements): their flags are unknown.
	for _, flag := range []string{"-scalejson", "-diffjson", "-servejson"} {
		out.Reset()
		errOut.Reset()
		if code := run([]string{flag, "out.json"}, &out, &errOut); code != 2 {
			t.Fatalf("%s: exit %d, want 2 (stderr: %s)", flag, code, errOut.String())
		}
		if out.Len() != 0 {
			t.Fatalf("%s ran an experiment anyway: %q", flag, out.String())
		}
	}
}
