package spec

import (
	"strings"
	"testing"
)

func TestParseAllow(t *testing.T) {
	b, err := ParseBlock(`
Req4 {
    +(P1->...->C)
    !(P1->...->P2)
}`)
	if err != nil {
		t.Fatal(err)
	}
	allows := b.Allows()
	if len(allows) != 1 {
		t.Fatalf("allows = %d, want 1", len(allows))
	}
	if allows[0].Path.String() != "P1->...->C" {
		t.Fatalf("allow path = %s", allows[0].Path)
	}
	if len(b.Forbids()) != 1 {
		t.Fatal("forbid alongside allow lost")
	}
	if allows[0].String() != "+(P1->...->C)" {
		t.Fatalf("Allow.String = %q", allows[0].String())
	}
}

func TestAllowPrintRoundTrip(t *testing.T) {
	src := `
Req {
    (A->B) >> (A->C->B)
    +(A->...->B)
    !(B->...->A)
}`
	s, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	printed := Print(s)
	for _, want := range []string{"+(A->...->B)", "!(B->...->A)", ">>"} {
		if !strings.Contains(printed, want) {
			t.Fatalf("print misses %q:\n%s", want, printed)
		}
	}
	s2, err := Parse(printed)
	if err != nil {
		t.Fatal(err)
	}
	if Print(s2) != printed {
		t.Fatal("allow round trip unstable")
	}
	if len(s2.Requirements()) != 3 {
		t.Fatalf("requirements = %d, want 3", len(s2.Requirements()))
	}
}

func TestSpecNodesIncludesAllow(t *testing.T) {
	s, err := Parse(`Req { +(X->...->Y) }`)
	if err != nil {
		t.Fatal(err)
	}
	nodes := s.Nodes()
	if len(nodes) != 2 || nodes[0] != "X" || nodes[1] != "Y" {
		t.Fatalf("Nodes = %v", nodes)
	}
}

func TestAllowParseErrors(t *testing.T) {
	for _, src := range []string{
		"Req { +(A) }",
		"Req { + }",
		"Req { +(A->B }",
		"Req { preference { +(A->B) } }",
	} {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) should fail", src)
		}
	}
}
