// Package topology models the network graph the synthesizer and
// explainer operate on: routers grouped into autonomous systems,
// bidirectional links, and announced destination prefixes.
//
// Routers are either internal — part of the managed network, and thus
// configurable by the synthesizer — or external (providers, customers,
// destination networks), whose behavior is fixed. The package also
// provides the builders used by the experiments: the paper's Figure 1b
// topology and grid / fat-tree / random families for the scaling
// studies the paper leaves as future work.
package topology

import (
	"fmt"
	"net/netip"
	"sort"
)

// Role classifies a node.
type Role int

const (
	// Internal routers belong to the managed network and receive
	// synthesized configurations.
	Internal Role = iota
	// External nodes (provider/customer ASes, destination networks)
	// have fixed behavior.
	External
)

// String renders the role.
func (r Role) String() string {
	if r == Internal {
		return "internal"
	}
	return "external"
}

// Router is a node of the network graph.
type Router struct {
	Name string
	AS   int
	Role Role
	// Prefix is the address block this node originates, if any.
	// External destination networks and ASes typically originate one.
	Prefix netip.Prefix
	// HasPrefix reports whether Prefix is meaningful.
	HasPrefix bool
	// Stub marks external nodes that originate routes but never
	// provide transit (customer and destination networks). Providers
	// are non-stub externals.
	Stub bool
}

// Network is an undirected graph of routers. The zero value is not
// usable; create networks with New.
type Network struct {
	routers map[string]*Router
	adj     map[string]map[string]bool
}

// New creates an empty network.
func New() *Network {
	return &Network{
		routers: make(map[string]*Router),
		adj:     make(map[string]map[string]bool),
	}
}

// AddRouter adds an internal router in the given AS.
func (n *Network) AddRouter(name string, as int) error {
	return n.add(&Router{Name: name, AS: as, Role: Internal})
}

// AddExternal adds an external transit node (a provider AS)
// originating the given prefix. Pass the zero Prefix for transit-only
// external nodes.
func (n *Network) AddExternal(name string, as int, prefix netip.Prefix) error {
	r := &Router{Name: name, AS: as, Role: External}
	if prefix.IsValid() {
		r.Prefix = prefix
		r.HasPrefix = true
	}
	return n.add(r)
}

// AddStub adds an external stub node (a customer or destination
// network): it originates the given prefix but never re-announces
// other nodes' routes, so it cannot be used for transit.
func (n *Network) AddStub(name string, as int, prefix netip.Prefix) error {
	r := &Router{Name: name, AS: as, Role: External, Stub: true}
	if prefix.IsValid() {
		r.Prefix = prefix
		r.HasPrefix = true
	}
	return n.add(r)
}

func (n *Network) add(r *Router) error {
	if r.Name == "" {
		return fmt.Errorf("topology: router must have a name")
	}
	if _, dup := n.routers[r.Name]; dup {
		return fmt.Errorf("topology: duplicate router %q", r.Name)
	}
	n.routers[r.Name] = r
	n.adj[r.Name] = make(map[string]bool)
	return nil
}

// AddLink connects two existing routers. Links are undirected; adding
// an existing link is a no-op.
func (n *Network) AddLink(a, b string) error {
	if a == b {
		return fmt.Errorf("topology: self-link at %q", a)
	}
	if _, ok := n.routers[a]; !ok {
		return fmt.Errorf("topology: unknown router %q", a)
	}
	if _, ok := n.routers[b]; !ok {
		return fmt.Errorf("topology: unknown router %q", b)
	}
	n.adj[a][b] = true
	n.adj[b][a] = true
	return nil
}

// Router returns the named router, or nil.
func (n *Network) Router(name string) *Router { return n.routers[name] }

// RemoveLink disconnects a and b (no-op if not linked). Used for
// failure injection by the verifier.
func (n *Network) RemoveLink(a, b string) {
	delete(n.adj[a], b)
	delete(n.adj[b], a)
}

// Clone deep-copies the network (router records are shared — they are
// immutable after construction).
func (n *Network) Clone() *Network {
	out := New()
	for name, r := range n.routers {
		out.routers[name] = r
		out.adj[name] = make(map[string]bool, len(n.adj[name]))
		for nb := range n.adj[name] {
			out.adj[name][nb] = true
		}
	}
	return out
}

// Links returns the undirected edges as sorted [a,b] pairs with a < b.
func (n *Network) Links() [][2]string {
	var out [][2]string
	for _, a := range n.RouterNames() {
		for _, b := range n.Neighbors(a) {
			if a < b {
				out = append(out, [2]string{a, b})
			}
		}
	}
	return out
}

// HasLink reports whether a and b are directly connected.
func (n *Network) HasLink(a, b string) bool { return n.adj[a][b] }

// Routers returns all routers sorted by name.
func (n *Network) Routers() []*Router {
	out := make([]*Router, 0, len(n.routers))
	for _, r := range n.routers {
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// RouterNames returns all router names, sorted.
func (n *Network) RouterNames() []string {
	out := make([]string, 0, len(n.routers))
	for name := range n.routers {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Internals returns the internal (configurable) routers sorted by
// name.
func (n *Network) Internals() []*Router {
	var out []*Router
	for _, r := range n.Routers() {
		if r.Role == Internal {
			out = append(out, r)
		}
	}
	return out
}

// Externals returns the external nodes sorted by name.
func (n *Network) Externals() []*Router {
	var out []*Router
	for _, r := range n.Routers() {
		if r.Role == External {
			out = append(out, r)
		}
	}
	return out
}

// Neighbors returns the names of the routers adjacent to name, sorted.
func (n *Network) Neighbors(name string) []string {
	out := make([]string, 0, len(n.adj[name]))
	for nb := range n.adj[name] {
		out = append(out, nb)
	}
	sort.Strings(out)
	return out
}

// NumRouters returns the node count.
func (n *Network) NumRouters() int { return len(n.routers) }

// NumLinks returns the undirected edge count.
func (n *Network) NumLinks() int {
	total := 0
	for _, nbs := range n.adj {
		total += len(nbs)
	}
	return total / 2
}

// Connected reports whether the graph is connected (ignoring isolated
// externals is the caller's concern; every node counts here).
func (n *Network) Connected() bool {
	if len(n.routers) == 0 {
		return true
	}
	start := n.RouterNames()[0]
	seen := map[string]bool{start: true}
	queue := []string{start}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for nb := range n.adj[cur] {
			if !seen[nb] {
				seen[nb] = true
				queue = append(queue, nb)
			}
		}
	}
	return len(seen) == len(n.routers)
}

// Validate checks structural invariants: connectivity and that every
// external node attaches to at least one internal router.
func (n *Network) Validate() error {
	if !n.Connected() {
		return fmt.Errorf("topology: network is not connected")
	}
	for _, r := range n.Externals() {
		touchesInternal := false
		for nb := range n.adj[r.Name] {
			if n.routers[nb].Role == Internal {
				touchesInternal = true
				break
			}
		}
		if !touchesInternal && len(n.adj[r.Name]) > 0 {
			continue // external-external chains (e.g. D1 behind P1) are fine
		}
		if len(n.adj[r.Name]) == 0 {
			return fmt.Errorf("topology: external node %q is isolated", r.Name)
		}
	}
	return nil
}

// MustPrefix parses a prefix or panics; a convenience for builders and
// tests.
func MustPrefix(s string) netip.Prefix {
	p, err := netip.ParsePrefix(s)
	if err != nil {
		panic(fmt.Sprintf("topology: bad prefix %q: %v", s, err))
	}
	return p
}
