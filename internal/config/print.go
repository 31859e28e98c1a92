package config

import (
	"fmt"
	"strings"
)

// Print renders the configuration in the IOS-like dialect parsed by
// Parse. Holes render as "?name". Output is deterministic.
func Print(c *Config) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "router bgp %s\n", c.Router)
	for _, n := range c.Neighbors {
		if n.ImportMap != "" {
			fmt.Fprintf(&sb, " neighbor %s route-map %s in\n", n.Peer, n.ImportMap)
		}
		if n.ExportMap != "" {
			fmt.Fprintf(&sb, " neighbor %s route-map %s out\n", n.Peer, n.ExportMap)
		}
		if n.ImportMap == "" && n.ExportMap == "" {
			fmt.Fprintf(&sb, " neighbor %s\n", n.Peer)
		}
	}
	sb.WriteString("!\n")
	for _, name := range c.PrefixListNames() {
		pl := c.PrefixLists[name]
		for _, e := range pl.Entries {
			fmt.Fprintf(&sb, "ip prefix-list %s seq %d %s %s\n", pl.Name, e.Seq, e.Action, e.Prefix)
		}
		sb.WriteString("!\n")
	}
	for _, name := range c.RouteMapNames() {
		rm := c.RouteMaps[name]
		for _, cl := range rm.Clauses {
			action := cl.Action.String()
			if cl.ActionHole != "" {
				action = "?" + cl.ActionHole
			}
			fmt.Fprintf(&sb, "route-map %s %s %d\n", rm.Name, action, cl.Seq)
			for _, m := range cl.Matches {
				sb.WriteString(" " + matchLine(m) + "\n")
			}
			for _, s := range cl.Sets {
				sb.WriteString(" " + setLine(s) + "\n")
			}
			sb.WriteString("!\n")
		}
	}
	return sb.String()
}

func matchLine(m *Match) string {
	val := func(concrete string) string {
		if m.ValueHole != "" {
			return "?" + m.ValueHole
		}
		return concrete
	}
	switch m.Kind {
	case MatchPrefixList:
		return "match ip address prefix-list " + val(m.PrefixList)
	case MatchCommunity:
		return "match community " + val(m.Community.String())
	case MatchNextHopIs:
		return "match next-hop " + val(m.NextHop)
	}
	return "match ?"
}

func setLine(s *Set) string {
	val := func(concrete string) string {
		if s.ParamHole != "" {
			return "?" + s.ParamHole
		}
		return concrete
	}
	switch s.Kind {
	case SetLocalPref:
		return "set local-preference " + val(fmt.Sprintf("%d", s.LocalPref))
	case SetCommunity:
		return "set community " + val(s.Community.String()) + " additive"
	case SetMED:
		return "set metric " + val(fmt.Sprintf("%d", s.MED))
	case SetNextHopIP:
		return "set next-hop " + val(s.NextHopIP)
	}
	return "set ?"
}

// PrintDeployment renders every configuration of the deployment in
// router-name order, separated by blank lines.
func PrintDeployment(d Deployment) string {
	names := make([]string, 0, len(d))
	for n := range d {
		names = append(names, n)
	}
	sortStrings(names)
	parts := make([]string, len(names))
	for i, n := range names {
		parts[i] = Print(d[n])
	}
	return strings.Join(parts, "\n")
}

func sortStrings(ss []string) {
	for i := 1; i < len(ss); i++ {
		for j := i; j > 0 && ss[j] < ss[j-1]; j-- {
			ss[j], ss[j-1] = ss[j-1], ss[j]
		}
	}
}

// DiffRouters returns the sorted names of routers whose configuration
// differs between the two deployments, including routers present in
// only one of them. Configurations compare by their printed text;
// ones shared by pointer are equal without printing.
func DiffRouters(old, nu Deployment) []string {
	var out []string
	for name, oc := range old {
		if nc, ok := nu[name]; !ok || oc != nc && Print(oc) != Print(nc) {
			out = append(out, name)
		}
	}
	for name := range nu {
		if _, ok := old[name]; !ok {
			out = append(out, name)
		}
	}
	sortStrings(out)
	return out
}
