package topology

import (
	"strings"
	"testing"
)

func TestParsePrintRoundTrip(t *testing.T) {
	for _, n := range []*Network{Paper(), Grid(3, 2), FatTree(2)} {
		printed := Print(n)
		parsed, err := Parse(printed)
		if err != nil {
			t.Fatalf("Parse failed: %v\n%s", err, printed)
		}
		if Print(parsed) != printed {
			t.Fatalf("round trip unstable:\n%s\n---\n%s", printed, Print(parsed))
		}
		if len(parsed.Routers()) != len(n.Routers()) || parsed.NumLinks() != n.NumLinks() {
			t.Fatal("round trip changed shape")
		}
	}
}

func TestParseFormat(t *testing.T) {
	src := `
# the paper topology, abbreviated
router R1 as 100
external P1 as 500 prefix 128.0.1.0/24
stub C as 600 prefix 123.0.1.0/20
external T as 500
link R1 P1
link C R1
link T R1
`
	n, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if n.Router("R1").Role != Internal {
		t.Fatal("R1 should be internal")
	}
	if !n.Router("C").Stub || n.Router("P1").Stub {
		t.Fatal("stub flags wrong")
	}
	if n.Router("T").HasPrefix {
		t.Fatal("prefix-less external should have no prefix")
	}
	if !n.HasLink("C", "R1") {
		t.Fatal("link missing")
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"frobnicate A B",
		"router R1",
		"router R1 as x",
		"router R1 as 100 prefix 10.0.0.0/8", // internals have no prefix
		"external P1 as 500 prefix bad",
		"router R1 as 100 extra tokens here",
		"link A",
		"link A B", // unknown routers
		"router R1 as 100\nrouter R1 as 100",
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) should fail", src)
		}
	}
}

func TestPrintContainsEverything(t *testing.T) {
	out := Print(Paper())
	for _, want := range []string{
		"router R1 as 100",
		"external P1 as 500 prefix 128.0.1.0/24",
		"stub C as 600 prefix 123.0.1.0/20",
		"stub D1 as 700 prefix 140.0.1.0/24",
		"link R1 R2",
		"link D1 P2",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("Print misses %q:\n%s", want, out)
		}
	}
}
