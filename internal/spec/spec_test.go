package spec

import (
	"slices"
	"testing"
)

func TestParseNoTransit(t *testing.T) {
	src := `
// No transit traffic
Req1 {
    !(P1->...->P2)
    !(P2->...->P1)
}`
	s, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Blocks) != 1 {
		t.Fatalf("blocks = %d, want 1", len(s.Blocks))
	}
	b := s.Blocks[0]
	if b.Name != "Req1" || b.Scope != "" {
		t.Fatalf("header = %q/%q", b.Name, b.Scope)
	}
	forbids := b.Forbids()
	if len(forbids) != 2 {
		t.Fatalf("forbids = %d, want 2", len(forbids))
	}
	if forbids[0].Path.String() != "P1->...->P2" {
		t.Fatalf("forbid 0 = %s", forbids[0].Path)
	}
	if forbids[1].Path.String() != "P2->...->P1" {
		t.Fatalf("forbid 1 = %s", forbids[1].Path)
	}
}

func TestParsePreference(t *testing.T) {
	src := `
// For D1, prefer routes through P1 over routes through P2
Req2 {
    (C->R3->R1->P1->...->D1)
    >> (C->R3->R2->P2->...->D1)
}`
	b, err := ParseBlock(src)
	if err != nil {
		t.Fatal(err)
	}
	prefs := b.Preferences()
	if len(prefs) != 1 {
		t.Fatalf("prefs = %d, want 1", len(prefs))
	}
	if len(prefs[0].Paths) != 2 {
		t.Fatalf("paths = %d, want 2", len(prefs[0].Paths))
	}
	if prefs[0].Paths[0].String() != "C->R3->R1->P1->...->D1" {
		t.Fatalf("path 0 = %s", prefs[0].Paths[0])
	}
}

func TestParseSubspecWithPreferenceGroup(t *testing.T) {
	src := `
R3 {
    preference {
        (R3->R1->P1->...->D1) >> (R3->R2->P2->...->D1)
    }
    !(R3->R1->R2->P2->...->D1)
    !(R3->R2->R1->P1->...->D1)
}`
	b, err := ParseBlock(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Preferences()) != 1 || len(b.Forbids()) != 2 {
		t.Fatalf("prefs=%d forbids=%d, want 1/2", len(b.Preferences()), len(b.Forbids()))
	}
}

func TestParseScopedBlock(t *testing.T) {
	src := `
R2 to P2 {
    !(P1->R1->R2->P2)
    !(P1->R1->R3->R2->P2)
}`
	b, err := ParseBlock(src)
	if err != nil {
		t.Fatal(err)
	}
	if b.Name != "R2" || b.Scope != "P2" {
		t.Fatalf("header = %q/%q, want R2/P2", b.Name, b.Scope)
	}
	if b.Title() != "R2 to P2" {
		t.Fatalf("Title = %q", b.Title())
	}
	if len(b.Forbids()) != 2 {
		t.Fatalf("forbids = %d, want 2", len(b.Forbids()))
	}
}

func TestParseEmptyBlock(t *testing.T) {
	b, err := ParseBlock("R3 { }")
	if err != nil {
		t.Fatal(err)
	}
	if !b.IsEmpty() {
		t.Fatal("block should be empty")
	}
}

func TestParseMultipleBlocks(t *testing.T) {
	src := `
Req1 { !(P1->...->P2) }
Req2 { (A->B) >> (A->C->B) }
`
	s, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Blocks) != 2 {
		t.Fatalf("blocks = %d, want 2", len(s.Blocks))
	}
	if s.Block("Req2") == nil || s.Block("Nope") != nil {
		t.Fatal("Block lookup broken")
	}
	if len(s.Requirements()) != 2 {
		t.Fatalf("requirements = %d, want 2", len(s.Requirements()))
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",                                // handled: empty spec has zero blocks — not an error; skip below
		"Req1 {",                          // unterminated
		"Req1 { !(P1) }",                  // single-element path
		"Req1 { !(P1->P2 }",               // missing paren
		"Req1 { (A->B) }",                 // bare path is not a clause
		"Req1 { preference { !(A->B) } }", // forbid inside preference group
		"{ !(A->B) }",                     // missing name
		"Req1 { !(...->...) }",            // double wildcard ends
		"Req1 { !(A->...->...->B) }",      // adjacent wildcards
		"Req1 @",                          // bad char
		"Req1 to { }",                     // missing scope
	}
	for _, src := range bad[1:] {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) should fail", src)
		}
	}
	if s, err := Parse(""); err != nil || len(s.Blocks) != 0 {
		t.Error("empty input should parse to an empty spec")
	}
	if _, err := ParseBlock("A { } B { }"); err == nil {
		t.Error("ParseBlock should reject multiple blocks")
	}
}

func TestParsePath(t *testing.T) {
	p, err := ParsePath("P1->...->P2")
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(p, NewPath("P1", Wildcard, "P2")) {
		t.Fatalf("path = %v", p)
	}
	if _, err := ParsePath("P1"); err == nil {
		t.Fatal("single-node path should fail")
	}
	if _, err := ParsePath("P1->P2 extra"); err == nil {
		t.Fatal("trailing tokens should fail")
	}
}

func TestPrintRoundTrip(t *testing.T) {
	src := `
Req1 {
    !(P1->...->P2)
    !(P2->...->P1)
}
Req2 {
    (C->R3->R1->P1->...->D1) >> (C->R3->R2->P2->...->D1)
}
R3 {
    preference {
        (R3->R1->P1->...->D1) >> (R3->R2->P2->...->D1)
    }
    !(R3->R1->R2->P2->...->D1)
}`
	s, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	printed := Print(s)
	s2, err := Parse(printed)
	if err != nil {
		t.Fatalf("reparse of %q: %v", printed, err)
	}
	if Print(s2) != printed {
		t.Fatalf("print not stable:\n%s\nvs\n%s", printed, Print(s2))
	}
	if len(s2.Blocks) != 3 {
		t.Fatalf("blocks after round trip = %d", len(s2.Blocks))
	}
}

func TestPathHelpers(t *testing.T) {
	p := NewPath("P1", Wildcard, "P2")
	if p.First() != "P1" || p.Last() != "P2" {
		t.Fatalf("First/Last = %q/%q", p.First(), p.Last())
	}
	q := NewPath("A", "B", "A")
	nodes := q.Nodes()
	if len(nodes) != 2 || nodes[0] != "A" || nodes[1] != "B" {
		t.Fatalf("Nodes = %v", nodes)
	}
	w := NewPath(Wildcard, "X")
	if w.First() != "X" || w.Last() != "X" {
		t.Fatalf("First/Last over leading wildcard = %q/%q", w.First(), w.Last())
	}
}

func TestRequirementString(t *testing.T) {
	f := &Forbid{Path: NewPath("P1", Wildcard, "P2")}
	pr := &Preference{Paths: []Path{NewPath("A", "B"), NewPath("A", "C", "B")}}
	if f.String() != "!(P1->...->P2)" {
		t.Fatalf("Forbid.String = %q", f.String())
	}
	if pr.String() != "(A->B) >> (A->C->B)" {
		t.Fatalf("Preference.String = %q", pr.String())
	}
}

func TestMatches(t *testing.T) {
	cases := []struct {
		pattern string
		path    []string
		want    bool
	}{
		{"P1->...->P2", []string{"P1", "P2"}, true},
		{"P1->...->P2", []string{"P1", "R1", "P2"}, true},
		{"P1->...->P2", []string{"P1", "R1", "R2", "P2"}, true},
		{"P1->...->P2", []string{"P2", "R1", "P1"}, false},
		{"P1->P2", []string{"P1", "R1", "P2"}, false},
		{"P1->P2", []string{"P1", "P2"}, true},
		{"A->...->B->...->C", []string{"A", "B", "C"}, true},
		{"A->...->B->...->C", []string{"A", "X", "B", "Y", "C"}, true},
		{"A->...->B->...->C", []string{"A", "C"}, false},
		{"...->C", []string{"X", "Y", "C"}, true},
		{"...->C", []string{"C"}, false}, // path of length 1 vs pattern needing C at end with >=2 elements? wildcard matches empty, so ["C"] matches
	}
	for _, c := range cases {
		pat, err := ParsePath(c.pattern)
		if err != nil {
			t.Fatalf("ParsePath(%q): %v", c.pattern, err)
		}
		got := Matches(pat, c.path)
		// Special-case documented above: "...->C" vs ["C"] matches
		// because the wildcard consumes zero nodes.
		if c.pattern == "...->C" && len(c.path) == 1 {
			if !got {
				t.Errorf("Matches(%q, %v): wildcard should match empty prefix", c.pattern, c.path)
			}
			continue
		}
		if got != c.want {
			t.Errorf("Matches(%q, %v) = %v, want %v", c.pattern, c.path, got, c.want)
		}
	}
}

func TestMatchesSubpath(t *testing.T) {
	pat, _ := ParsePath("P1->...->P2")
	if !MatchesSubpath(pat, []string{"C", "P1", "R1", "P2", "D"}) {
		t.Fatal("subpath through P1..P2 should match")
	}
	if MatchesSubpath(pat, []string{"C", "P2", "R1", "P1"}) {
		t.Fatal("reversed order should not match")
	}
	exact, _ := ParsePath("R1->P1")
	if !MatchesSubpath(exact, []string{"C", "R1", "P1"}) {
		t.Fatal("exact adjacent pair should match as subpath")
	}
	if MatchesSubpath(exact, []string{"C", "R1", "X", "P1"}) {
		t.Fatal("non-adjacent pair should not match exact pattern")
	}
}

func TestSpecNodes(t *testing.T) {
	src := `
Req1 { !(P1->...->P2) }
Req2 { (C->R3->P1) >> (C->R3->P2) }
`
	s, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	nodes := s.Nodes()
	want := []string{"P1", "P2", "C", "R3"}
	if len(nodes) != len(want) {
		t.Fatalf("Nodes = %v, want %v", nodes, want)
	}
	for i := range want {
		if nodes[i] != want[i] {
			t.Fatalf("Nodes = %v, want %v", nodes, want)
		}
	}
}
