package topology

import (
	"slices"
	"strings"
	"testing"
)

func TestCloneIndependence(t *testing.T) {
	a := Paper()
	b := a.Clone()
	b.RemoveLink("R1", "R2")
	if !a.HasLink("R1", "R2") {
		t.Fatal("Clone shares adjacency")
	}
	if b.HasLink("R1", "R2") {
		t.Fatal("RemoveLink did not remove")
	}
	if a.NumLinks() != b.NumLinks()+1 {
		t.Fatalf("link counts: %d vs %d", a.NumLinks(), b.NumLinks())
	}
	// Router records are intentionally shared (immutable after build).
	if a.Router("R1") != b.Router("R1") {
		t.Fatal("router records should be shared")
	}
}

func TestRemoveLinkIdempotent(t *testing.T) {
	n := Paper()
	n.RemoveLink("R1", "R2")
	n.RemoveLink("R1", "R2") // no-op
	n.RemoveLink("R1", "ZZ") // unknown: no-op
	if n.HasLink("R1", "R2") {
		t.Fatal("link still present")
	}
}

func TestLinksSortedPairs(t *testing.T) {
	n := Paper()
	links := n.Links()
	if len(links) != n.NumLinks() {
		t.Fatalf("Links() = %d pairs, NumLinks = %d", len(links), n.NumLinks())
	}
	for _, l := range links {
		if l[0] >= l[1] {
			t.Fatalf("pair %v not ordered", l)
		}
		if !n.HasLink(l[0], l[1]) {
			t.Fatalf("pair %v not a link", l)
		}
	}
}

func TestCloneSurvivesSimulationShape(t *testing.T) {
	// Removing a link from a clone must leave the original's link
	// count and both endpoints' neighbor lists alone.
	a := Paper()
	links := a.NumLinks()
	r1, r3 := strings.Join(a.Neighbors("R1"), ","), strings.Join(a.Neighbors("R3"), ",")
	b := a.Clone()
	b.RemoveLink("R3", "R1")
	if a.NumLinks() != links || strings.Join(a.Neighbors("R1"), ",") != r1 || strings.Join(a.Neighbors("R3"), ",") != r3 {
		t.Fatal("clone mutation leaked into the original")
	}
	if b.NumLinks() != links-1 || slices.Contains(b.Neighbors("R1"), "R3") || slices.Contains(b.Neighbors("R3"), "R1") {
		t.Fatal("removed link still present in the clone")
	}
}
