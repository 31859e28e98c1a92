package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/netgen"
	"repro/internal/scenarios"
	"repro/internal/synth"
)

func TestParseTarget(t *testing.T) {
	cases := []struct {
		in   string
		want core.Target
	}{
		{"R1_to_P1/100/action", core.Target{Map: "R1_to_P1", Seq: 100, Field: core.FieldAction}},
		{"m/10/match/0", core.Target{Map: "m", Seq: 10, Field: core.FieldMatch, Index: 0}},
		{"m/10/set/2", core.Target{Map: "m", Seq: 10, Field: core.FieldSet, Index: 2}},
	}
	for _, c := range cases {
		got, err := parseTarget(c.in)
		if err != nil {
			t.Errorf("parseTarget(%q): %v", c.in, err)
			continue
		}
		if got != c.want {
			t.Errorf("parseTarget(%q) = %+v, want %+v", c.in, got, c.want)
		}
	}
	bad := []string{"", "m", "m/10", "m/x/action", "m/10/weird", "m/10/match", "m/10/set/x"}
	for _, s := range bad {
		if _, err := parseTarget(s); err == nil {
			t.Errorf("parseTarget(%q) should fail", s)
		}
	}
}

// TestRunExitCodes pins the shared cmd convention: usage errors —
// unknown scenario, malformed -var, unknown requirement block — exit 2
// with the complaint on stderr.
func TestRunExitCodes(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-scenario", "nope"}, &out, &errOut); code != 2 {
		t.Fatalf("unknown scenario: exit %d, want 2 (stderr: %s)", code, errOut.String())
	}
	if !strings.Contains(errOut.String(), "netexplain:") {
		t.Fatalf("error not prefixed on stderr: %q", errOut.String())
	}

	out.Reset()
	errOut.Reset()
	if code := run([]string{"-scenario", "scenario1", "-var", "not-a-target"}, &out, &errOut); code != 2 {
		t.Fatalf("bad -var: exit %d, want 2 (stderr: %s)", code, errOut.String())
	}

	out.Reset()
	errOut.Reset()
	if code := run([]string{"-no-such-flag"}, &out, &errOut); code != 2 {
		t.Fatalf("bad flag: exit %d, want 2", code)
	}
}

// TestRunRules pins the one flag that must not touch the pipeline:
// -rules prints the rule catalog and exits 0.
func TestRunRules(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-rules"}, &out, &errOut); code != 0 {
		t.Fatalf("-rules: exit %d (stderr: %s)", code, errOut.String())
	}
	if out.Len() == 0 {
		t.Fatal("-rules printed nothing")
	}
}

// TestRunDiff drives the incremental what-if mode end to end: explain
// OLD, re-explain NEW, print the full (byte-identical-to-cold) report
// plus the delta summary.
func TestRunDiff(t *testing.T) {
	sc := scenarios.Scenario1()
	res, err := synth.Synthesize(sc.Net, sc.Sketch, sc.Requirements(), synth.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	edited, edits := netgen.Perturb(res.Deployment, 1, 1)
	if len(edits) != 1 {
		t.Fatalf("wanted 1 edit, got %v", edits)
	}
	dir := t.TempDir()
	oldPath := filepath.Join(dir, "old.cfg")
	newPath := filepath.Join(dir, "new.cfg")
	if err := os.WriteFile(oldPath, []byte(config.PrintDeployment(res.Deployment)), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(newPath, []byte(config.PrintDeployment(edited)), 0o644); err != nil {
		t.Fatal(err)
	}

	var out, errOut strings.Builder
	if code := run([]string{"-scenario", "scenario1", "-diff", oldPath, newPath}, &out, &errOut); code != 0 {
		t.Fatalf("-diff exit %d (stderr: %s)", code, errOut.String())
	}
	got := out.String()
	if !strings.Contains(got, "EXPLANATION REPORT") {
		t.Fatalf("no report in output:\n%s", got)
	}
	if !strings.Contains(got, "WHAT-IF DELTA SUMMARY") {
		t.Fatalf("no delta summary in output:\n%s", got)
	}
	if !strings.Contains(got, "edited configs:") {
		t.Fatalf("summary missing edited configs line:\n%s", got)
	}

	// Usage errors: missing positional args, unreadable file.
	out.Reset()
	errOut.Reset()
	if code := run([]string{"-scenario", "scenario1", "-diff", oldPath}, &out, &errOut); code != 2 {
		t.Fatalf("-diff with one arg: exit %d, want 2", code)
	}
	out.Reset()
	errOut.Reset()
	if code := run([]string{"-scenario", "scenario1", "-diff", oldPath, filepath.Join(dir, "missing.cfg")}, &out, &errOut); code != 1 {
		t.Fatalf("-diff with missing file: exit %d, want 1", code)
	}
}

// TestRunAllToFile pins the -o flag: the streamed -all report lands in
// the file, byte-identical to the stdout report.
func TestRunAllToFile(t *testing.T) {
	var want, errOut strings.Builder
	if code := run([]string{"-scenario", "scenario1", "-all"}, &want, &errOut); code != 0 {
		t.Fatalf("-all exit %d (stderr: %s)", code, errOut.String())
	}
	path := filepath.Join(t.TempDir(), "report.txt")
	var out strings.Builder
	errOut.Reset()
	if code := run([]string{"-scenario", "scenario1", "-all", "-o", path}, &out, &errOut); code != 0 {
		t.Fatalf("-all -o exit %d (stderr: %s)", code, errOut.String())
	}
	if out.Len() != 0 {
		t.Fatalf("-o still wrote to stdout: %q", out.String())
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != want.String() {
		t.Errorf("-o report differs from stdout report:\n%s", string(got))
	}
	// An unwritable path is an operational failure, not a usage error.
	errOut.Reset()
	if code := run([]string{"-all", "-o", filepath.Join(path, "nope")}, &out, &errOut); code != 1 {
		t.Fatalf("bad -o path: exit %d, want 1", code)
	}
}

// TestRunSingleRouterGoldens pins the single-router modes byte for
// byte: the complement, -validate (explain, then check the deployed
// configuration against the lifted block) and a -var explanation.
// A golden is the command's stdout; regenerate one by running the
// case's arguments, e.g. `go run ./cmd/netexplain -scenario scenario2
// -router R3 -complement > cmd/netexplain/testdata/complement_scenario2_R3.golden`,
// and inspect the diff.
func TestRunSingleRouterGoldens(t *testing.T) {
	cases := []struct {
		golden string
		args   []string
	}{
		{"complement_scenario2_R3", []string{"-scenario", "scenario2", "-router", "R3", "-complement"}},
		{"validate_scenario1_R1", []string{"-scenario", "scenario1", "-router", "R1", "-validate"}},
		{"var_scenario1_R1_to_P1_100_action", []string{"-scenario", "scenario1", "-router", "R1", "-var", "R1_to_P1/100/action"}},
	}
	for _, c := range cases {
		t.Run(c.golden, func(t *testing.T) {
			var out, errOut strings.Builder
			if code := run(c.args, &out, &errOut); code != 0 {
				t.Fatalf("exit %d (stderr: %s)", code, errOut.String())
			}
			path := filepath.Join("testdata", c.golden+".golden")
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if out.String() != string(want) {
				t.Errorf("output differs from %s.\ngot:\n%s", path, out.String())
			}
		})
	}
}
