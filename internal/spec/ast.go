// Package spec implements the path-requirement specification language
// the paper adopts from NetComplete for global intents and reuses,
// unchanged, for per-device subspecifications ("we use the same
// language for subspecifications as for the global specification").
//
// The surface syntax follows the paper's figures:
//
//	// No transit traffic (Figure 1a)
//	Req1 {
//	    !(P1->...->P2)
//	    !(P2->...->P1)
//	}
//
//	// Path preference for customer to D1 (Figure 3)
//	Req2 {
//	    (C->R3->R1->P1->...->D1)
//	    >> (C->R3->R2->P2->...->D1)
//	}
//
//	// Subspecification at R3 (Figure 4)
//	R3 {
//	    preference {
//	        (R3->R1->P1->...->D1) >> (R3->R2->P2->...->D1)
//	    }
//	    !(R3->R1->R2->P2->...->D1)
//	    !(R3->R2->R1->P1->...->D1)
//	}
//
// A block header may carry an interface scope, as in Figure 5's
// "R2 to P2 { ... }".
package spec

import "strings"

// Wildcard is the path element that matches any (possibly empty)
// sequence of nodes, written "..." in the surface syntax.
const Wildcard = "..."

// Path is a pattern over network nodes: a sequence of node names and
// wildcards. A concrete path (no wildcards) denotes itself; wildcards
// match zero or more intermediate nodes.
type Path []string

// NewPath builds a path pattern from elements.
func NewPath(elems ...string) Path { return Path(elems) }

// String renders the path in surface syntax, e.g. "P1->...->P2".
func (p Path) String() string { return strings.Join(p, "->") }

// First returns the first non-wildcard element, or "".
func (p Path) First() string {
	for _, e := range p {
		if e != Wildcard {
			return e
		}
	}
	return ""
}

// Last returns the last non-wildcard element, or "".
func (p Path) Last() string {
	for i := len(p) - 1; i >= 0; i-- {
		if p[i] != Wildcard {
			return p[i]
		}
	}
	return ""
}

// Equal reports element-wise equality.
func (p Path) Equal(q Path) bool {
	if len(p) != len(q) {
		return false
	}
	for i := range p {
		if p[i] != q[i] {
			return false
		}
	}
	return true
}

// Nodes returns the distinct non-wildcard node names in order of first
// appearance.
func (p Path) Nodes() []string {
	seen := map[string]bool{}
	var out []string
	for _, e := range p {
		if e != Wildcard && !seen[e] {
			seen[e] = true
			out = append(out, e)
		}
	}
	return out
}

// Requirement is one clause of a specification block: either a
// forbidden path or an ordered path preference.
type Requirement interface {
	// String renders the requirement in surface syntax.
	String() string
	// Mentions reports whether the requirement involves the node.
	Mentions(node string) bool

	isRequirement()
}

// Forbid states that no traffic may follow any path matching the
// pattern: "!(P1->...->P2)".
type Forbid struct {
	Path Path
}

// String implements Requirement.
func (f *Forbid) String() string { return "!(" + f.Path.String() + ")" }

// Mentions implements Requirement.
func (f *Forbid) Mentions(node string) bool { return pathMentions(f.Path, node) }

func (f *Forbid) isRequirement() {}

// Allow states that traffic from the pattern's first node must reach
// its last node along a matching path: "+(P1->...->C)". It is the
// requirement the administrator adds at the end of the paper's
// Scenario 1 ("allow routes from Provider 1 to the customer network").
type Allow struct {
	Path Path
}

// String implements Requirement.
func (a *Allow) String() string { return "+(" + a.Path.String() + ")" }

// Mentions implements Requirement.
func (a *Allow) Mentions(node string) bool { return pathMentions(a.Path, node) }

func (a *Allow) isRequirement() {}

// Preference states an ordered preference over paths toward a common
// destination: "(p1) >> (p2) >> (p3)" means traffic follows the first
// available path in the list.
type Preference struct {
	Paths []Path
}

// String implements Requirement.
func (p *Preference) String() string {
	parts := make([]string, len(p.Paths))
	for i, path := range p.Paths {
		parts[i] = "(" + path.String() + ")"
	}
	return strings.Join(parts, " >> ")
}

// Mentions implements Requirement.
func (p *Preference) Mentions(node string) bool {
	for _, path := range p.Paths {
		if pathMentions(path, node) {
			return true
		}
	}
	return false
}

func (p *Preference) isRequirement() {}

func pathMentions(p Path, node string) bool {
	for _, e := range p {
		if e == node {
			return true
		}
	}
	return false
}

// Block is one named specification block. For global intents the name
// is a requirement label ("Req1"); for subspecifications it is the
// device name, optionally scoped to a peer interface ("R2 to P2").
type Block struct {
	Name string
	// Scope is the peer of the interface the block is scoped to, or ""
	// for a whole-device or global block.
	Scope string
	Reqs  []Requirement
}

// Title renders the block header.
func (b *Block) Title() string {
	if b.Scope != "" {
		return b.Name + " to " + b.Scope
	}
	return b.Name
}

// Allows returns the allow requirements in order.
func (b *Block) Allows() []*Allow {
	var out []*Allow
	for _, r := range b.Reqs {
		if a, ok := r.(*Allow); ok {
			out = append(out, a)
		}
	}
	return out
}

// Forbids returns the forbid requirements in order.
func (b *Block) Forbids() []*Forbid {
	var out []*Forbid
	for _, r := range b.Reqs {
		if f, ok := r.(*Forbid); ok {
			out = append(out, f)
		}
	}
	return out
}

// Preferences returns the preference requirements in order.
func (b *Block) Preferences() []*Preference {
	var out []*Preference
	for _, r := range b.Reqs {
		if p, ok := r.(*Preference); ok {
			out = append(out, p)
		}
	}
	return out
}

// IsEmpty reports whether the block has no requirements — the "R3 can
// do anything" case from the paper's Scenario 3.
func (b *Block) IsEmpty() bool { return len(b.Reqs) == 0 }

// Spec is a sequence of blocks: a whole specification document.
type Spec struct {
	Blocks []*Block
}

// Block returns the block with the given name (ignoring scope), or
// nil.
func (s *Spec) Block(name string) *Block {
	for _, b := range s.Blocks {
		if b.Name == name {
			return b
		}
	}
	return nil
}

// Requirements returns all requirements of all blocks, flattened.
func (s *Spec) Requirements() []Requirement {
	var out []Requirement
	for _, b := range s.Blocks {
		out = append(out, b.Reqs...)
	}
	return out
}

// Nodes returns the distinct node names mentioned anywhere in the
// spec, in order of first appearance.
func (s *Spec) Nodes() []string {
	seen := map[string]bool{}
	var out []string
	add := func(p Path) {
		for _, n := range p.Nodes() {
			if !seen[n] {
				seen[n] = true
				out = append(out, n)
			}
		}
	}
	for _, b := range s.Blocks {
		for _, r := range b.Reqs {
			switch q := r.(type) {
			case *Forbid:
				add(q.Path)
			case *Allow:
				add(q.Path)
			case *Preference:
				for _, p := range q.Paths {
					add(p)
				}
			}
		}
	}
	return out
}
