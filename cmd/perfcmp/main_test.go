package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestCompareFixture pins the comparison of a small fixture byte for
// byte. Its numbers were checked by hand: medians and quartiles
// interpolate between ranks, a null value drops out of its side and of
// the pair count, a tie counts for neither side, "higher" metrics win
// upward, and an undeclared metric has no count. Each verdict appears:
// a wide parent spread is unresolved unless the two sides' runs
// separate, 9 of 10 pairs won by more than the parent's quartile range
// is a gain, 3 of 3 pairs won is not (a gain needs 10 pairs), a median
// worse by more than the bound is worse, and a median worse by exactly
// the bound is flat.
func TestCompareFixture(t *testing.T) {
	var out, errOut strings.Builder
	args := []string{"-bench", "testdata/bench.json", "testdata/parent.jsonl", "testdata/change.jsonl"}
	if code := run(args, &out, &errOut); code != 0 {
		t.Fatalf("exit %d (stderr: %s)", code, errOut.String())
	}
	want, err := os.ReadFile("testdata/want.txt")
	if err != nil {
		t.Fatal(err)
	}
	if out.String() != string(want) {
		t.Errorf("output differs from testdata/want.txt:\n%s", out.String())
	}
	for _, line := range []string{
		"cli: 4 pairs; attempted/failed ops: parent 42/1, change 42/0",
		"setup_s    s      0.25 [0.175, 0.325] (n=4)  0.175 [0.1375, 0.2375] (n=4)  3/4         unresolved",
		"hit_share  ratio  0.5 [0.375, 0.5] (n=3)     0.625 [0.4375, 0.7875] (n=4)  1/3         -",
		"peak_rss_mb  MB    50.05 [49.92, 50.18] (n=10)     70.1 [70, 70.2] (n=10)       0/10        worse",
		"setup_s      s     0.1795 [0.1772, 0.1807] (n=10)  0.14 [0.139, 0.1417] (n=10)  9/10        gain",
		"setup_s  s     2 [2, 2] (n=1)          2.5 [2.5, 2.5] (n=1)    0/1         flat",
		"peak_rss_mb  MB    20 [15, 25] (n=3)       25 [18.5, 26.5] (n=3)   1/3         unresolved",
		"setup_s      s     2 [1.5, 2.5] (n=3)      0.6 [0.55, 0.65] (n=3)  3/3         flat",
	} {
		if !strings.Contains(out.String(), line) {
			t.Errorf("output lacks %q", line)
		}
	}
}

// TestRunRejectsBadInput pins the exit codes: malformed, duplicated or
// unpaired runs and an unreadable benchmark file exit 1, usage errors
// exit 2.
func TestRunRejectsBadInput(t *testing.T) {
	dir := t.TempDir()
	write := func(name, body string) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	good := "testdata/parent.jsonl"
	cases := []struct {
		name string
		args []string
		code int
		msg  string
	}{
		{"malformed", []string{write("bad.jsonl", "{\"workload\":\"cli\",\n"), good}, 1, "line 1"},
		{"no seed", []string{write("noseed.jsonl", `{"workload":"cli","metrics":{}}`), good}, 1, "without a workload or seed"},
		{"duplicate", []string{write("dup.jsonl", `{"workload":"cli","seed":1}`+"\n"+`{"workload":"cli","seed":1}`), good}, 1, "appears twice"},
		{"empty", []string{write("empty.jsonl", "\n"), good}, 1, "no runs"},
		{"unpaired", []string{good, write("short.jsonl", `{"workload":"cli","seed":1}`)}, 1, "cli seed 2 (parent only)"},
		{"missing file", []string{filepath.Join(dir, "nope.jsonl"), good}, 1, "nope.jsonl"},
		{"one file", []string{good}, 2, "want two files"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var out, errOut strings.Builder
			args := append([]string{"-bench", "testdata/bench.json"}, c.args...)
			if code := run(args, &out, &errOut); code != c.code {
				t.Fatalf("exit %d, want %d (stderr: %s)", code, c.code, errOut.String())
			}
			if !strings.Contains(errOut.String(), c.msg) {
				t.Errorf("stderr %q lacks %q", errOut.String(), c.msg)
			}
		})
	}
	var out, errOut strings.Builder
	if code := run([]string{"-bench", filepath.Join(dir, "nope.json"), good, good}, &out, &errOut); code != 1 {
		t.Errorf("missing benchmark file: exit %d, want 1", code)
	}
}
