package topology

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestAddRouterAndLink(t *testing.T) {
	n := New()
	if err := n.AddRouter("A", 100); err != nil {
		t.Fatal(err)
	}
	if err := n.AddRouter("A", 100); err == nil {
		t.Fatal("duplicate router should fail")
	}
	if err := n.AddRouter("", 100); err == nil {
		t.Fatal("empty name should fail")
	}
	if err := n.AddRouter("B", 100); err != nil {
		t.Fatal(err)
	}
	if err := n.AddLink("A", "B"); err != nil {
		t.Fatal(err)
	}
	if err := n.AddLink("A", "A"); err == nil {
		t.Fatal("self link should fail")
	}
	if err := n.AddLink("A", "Z"); err == nil {
		t.Fatal("link to unknown router should fail")
	}
	if !n.HasLink("A", "B") || !n.HasLink("B", "A") {
		t.Fatal("links must be bidirectional")
	}
	if n.NumLinks() != 1 {
		t.Fatalf("NumLinks = %d, want 1", n.NumLinks())
	}
	// Idempotent re-add.
	n.AddLink("B", "A")
	if n.NumLinks() != 1 {
		t.Fatalf("NumLinks after re-add = %d, want 1", n.NumLinks())
	}
}

func TestPaperTopology(t *testing.T) {
	n := Paper()
	if err := n.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := len(n.Routers()); got != 7 {
		t.Fatalf("%d routers, want 7", got)
	}
	internals := n.Internals()
	if len(internals) != 3 {
		t.Fatalf("internals = %d, want 3", len(internals))
	}
	for _, want := range []string{"R1", "R2", "R3"} {
		if n.Router(want) == nil || n.Router(want).Role != Internal {
			t.Fatalf("%s should be an internal router", want)
		}
	}
	for _, link := range [][2]string{{"R1", "R2"}, {"R1", "R3"}, {"R2", "R3"}, {"P1", "R1"}, {"P2", "R2"}, {"C", "R3"}, {"D1", "P1"}, {"D1", "P2"}} {
		if !n.HasLink(link[0], link[1]) {
			t.Errorf("missing link %v", link)
		}
	}
	if n.HasLink("P1", "P2") {
		t.Error("providers must not be directly connected")
	}
	// The customer prefix from Figure 1c.
	if c := n.Router("C"); !c.HasPrefix || c.Prefix.String() != "123.0.1.0/20" {
		t.Errorf("customer prefix = %v", c.Prefix)
	}
	if got := n.Router("P1").AS; got != 500 {
		t.Errorf("P1 AS = %d, want 500", got)
	}
}

func TestNeighborsSorted(t *testing.T) {
	n := Paper()
	nb := n.Neighbors("R1")
	want := "P1,R2,R3"
	if strings.Join(nb, ",") != want {
		t.Fatalf("Neighbors(R1) = %v, want %s", nb, want)
	}
}

func TestConnectivityAndValidate(t *testing.T) {
	n := New()
	n.AddRouter("A", 100)
	n.AddRouter("B", 100)
	if n.Connected() {
		t.Fatal("two isolated nodes reported connected")
	}
	if err := n.Validate(); err == nil {
		t.Fatal("disconnected network should fail validation")
	}
	n.AddLink("A", "B")
	if !n.Connected() {
		t.Fatal("linked pair reported disconnected")
	}
	if err := n.Validate(); err != nil {
		t.Fatal(err)
	}
	if !New().Connected() {
		t.Fatal("empty network should be connected")
	}
}

func TestGrid(t *testing.T) {
	n := Grid(3, 2)
	if err := n.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := len(n.Internals()); got != 6 {
		t.Fatalf("grid internals = %d, want 6", got)
	}
	// Interior adjacency: R1_0 connects to R0_0, R2_0, R1_1.
	for _, want := range []string{"R0_0", "R2_0", "R1_1"} {
		if !n.HasLink("R1_0", want) {
			t.Errorf("grid missing link R1_0-%s", want)
		}
	}
	// Externals attached.
	if !n.HasLink("C", "R0_0") || !n.HasLink("P1", "R2_1") || !n.HasLink("P2", "R2_0") {
		t.Error("grid externals misattached")
	}
}

func TestFatTree(t *testing.T) {
	n := FatTree(4)
	if err := n.Validate(); err != nil {
		t.Fatal(err)
	}
	// k=4: 4 core + 4 pods * (2 agg + 2 edge) = 4 + 16 = 20 internal.
	if got := len(n.Internals()); got != 20 {
		t.Fatalf("fat-tree internals = %d, want 20", got)
	}
	mustPanic(t, func() { FatTree(3) })
	mustPanic(t, func() { FatTree(0) })
}

func TestRandomDeterminism(t *testing.T) {
	a := Random(12, 3.0, 42)
	b := Random(12, 3.0, 42)
	if a.NumLinks() != b.NumLinks() {
		t.Fatal("same seed should give same link count")
	}
	for _, r := range a.RouterNames() {
		an := strings.Join(a.Neighbors(r), ",")
		bn := strings.Join(b.Neighbors(r), ",")
		if an != bn {
			t.Fatalf("seeded topology differs at %s: %s vs %s", r, an, bn)
		}
	}
	c := Random(12, 3.0, 43)
	diff := false
	for _, r := range a.RouterNames() {
		if strings.Join(a.Neighbors(r), ",") != strings.Join(c.Neighbors(r), ",") {
			diff = true
			break
		}
	}
	if !diff {
		t.Fatal("different seeds should (overwhelmingly) give different networks")
	}
	mustPanic(t, func() { Random(2, 2, 1) })
	mustPanic(t, func() { Grid(1, 1) })
}

// Property: every random network is connected and validates.
func TestQuickRandomConnected(t *testing.T) {
	f := func(seed int64, sz uint8) bool {
		n := 3 + int(sz%40)
		net := Random(n, 2.5, seed)
		return net.Connected() && net.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestMustPrefix(t *testing.T) {
	if MustPrefix("10.0.0.0/8").String() != "10.0.0.0/8" {
		t.Fatal("MustPrefix round trip failed")
	}
	mustPanic(t, func() { MustPrefix("not-a-prefix") })
}

func mustPanic(t *testing.T, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	f()
}
