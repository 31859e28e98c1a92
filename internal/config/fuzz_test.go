package config

import (
	"strings"
	"testing"
)

// FuzzParse checks the configuration parser never panics, that
// accepted configurations round-trip, and that printing an accepted
// configuration keeps every "?"-prefixed token of its input: a hole
// the parser read is never lost, and a token it could not read as one
// is an error, not a silently concrete field.
func FuzzParse(f *testing.F) {
	f.Add("router bgp R1\nneighbor P1 route-map m out\nroute-map m deny 10\n match community 100:2\n")
	f.Add("router bgp R1\nip prefix-list p seq 10 permit 10.0.0.0/8\n")
	f.Add("router bgp R1\nroute-map m ?hole 10\n set local-preference ?lp\n")
	f.Add("router bgp R1\nroute-map m permit 10\n match next-hop R2\n set metric 5\n")
	f.Add("garbage")
	f.Add("router bgp")
	f.Add("router bgp R1\nroute-map m permit 10\nroute-map m permit 5\n")
	f.Add("router bgp R1\nneighbor P1 route-map ?m out\nroute-map ?m ?a 10\n match community ?c\n set community ?s additive\n")
	f.Fuzz(func(t *testing.T, src string) {
		c, err := Parse(src)
		if err != nil {
			return
		}
		printed := Print(c)
		kept := make(map[string]bool)
		for _, tok := range strings.Fields(printed) {
			kept[tok] = true
		}
		for _, line := range strings.Split(src, "\n") {
			if line = strings.TrimSpace(line); strings.HasPrefix(line, "!") {
				continue // comment
			}
			for _, tok := range strings.Fields(line) {
				if strings.HasPrefix(tok, "?") && !kept[tok] {
					t.Fatalf("printing dropped %q:\n%s", tok, printed)
				}
			}
		}
		c2, err := Parse(printed)
		if err != nil {
			t.Fatalf("printed config does not reparse: %v\n%s", err, printed)
		}
		if Print(c2) != printed {
			t.Fatalf("print not stable:\n%s\n---\n%s", printed, Print(c2))
		}
	})
}
