package config

import (
	"fmt"
	"net/netip"
	"strconv"
	"strings"

	"repro/internal/bgp"
)

// Parse reads a single router configuration in the IOS-like dialect
// produced by Print. Lines starting with "!" are separators/comments.
func Parse(src string) (*Config, error) {
	var c *Config
	var curMap *RouteMap
	var curClause *Clause
	for lineNo, raw := range strings.Split(src, "\n") {
		line := strings.TrimSpace(raw)
		if line == "" || strings.HasPrefix(line, "!") {
			continue
		}
		fields := strings.Fields(line)
		fail := func(format string, args ...any) error {
			return fmt.Errorf("config: line %d: %s", lineNo+1, fmt.Sprintf(format, args...))
		}
		switch {
		case fields[0] == "router":
			if len(fields) != 3 || fields[1] != "bgp" {
				return nil, fail("expected 'router bgp <name>'")
			}
			if c != nil {
				return nil, fail("multiple 'router bgp' stanzas")
			}
			c = New(fields[2])

		case fields[0] == "neighbor":
			if c == nil {
				return nil, fail("'neighbor' before 'router bgp'")
			}
			// A line never rebinds what an earlier line bound: the
			// earlier binding would vanish from the config silently.
			switch len(fields) {
			case 2:
				if c.Neighbor(fields[1]) != nil {
					return nil, fail("neighbor %s declared twice", fields[1])
				}
				c.AddNeighbor(fields[1], "", "")
			case 5:
				if fields[2] != "route-map" {
					return nil, fail("expected 'neighbor <peer> route-map <map> in|out'")
				}
				peer, mapName, dir := fields[1], fields[3], fields[4]
				n := c.Neighbor(peer)
				if n == nil {
					c.AddNeighbor(peer, "", "")
					n = c.Neighbor(peer)
				}
				var bound *string
				switch dir {
				case "in":
					bound = &n.ImportMap
				case "out":
					bound = &n.ExportMap
				default:
					return nil, fail("direction must be in or out, got %q", dir)
				}
				if *bound != "" {
					return nil, fail("neighbor %s already has an %s route-map", peer, dir)
				}
				*bound = mapName
			default:
				return nil, fail("malformed neighbor line")
			}

		case fields[0] == "ip" && len(fields) >= 2 && fields[1] == "prefix-list":
			if c == nil {
				return nil, fail("'ip prefix-list' before 'router bgp'")
			}
			// ip prefix-list NAME seq N permit|deny PREFIX
			if len(fields) != 7 || fields[3] != "seq" {
				return nil, fail("expected 'ip prefix-list <name> seq <n> permit|deny <prefix>'")
			}
			name := fields[2]
			seq, err := strconv.Atoi(fields[4])
			if err != nil {
				return nil, fail("bad sequence number %q", fields[4])
			}
			action, err := parseAction(fields[5])
			if err != nil {
				return nil, fail("%v", err)
			}
			prefix, err := netip.ParsePrefix(fields[6])
			if err != nil {
				return nil, fail("bad prefix %q: %v", fields[6], err)
			}
			pl := c.PrefixLists[name]
			if pl == nil {
				pl = &PrefixList{Name: name}
				c.AddPrefixList(pl)
			}
			pl.Entries = append(pl.Entries, PrefixEntry{Seq: seq, Action: action, Prefix: prefix})

		case fields[0] == "route-map":
			if c == nil {
				return nil, fail("'route-map' before 'router bgp'")
			}
			if len(fields) != 3 && len(fields) != 4 {
				return nil, fail("expected 'route-map <name> permit|deny <seq>'")
			}
			name := fields[1]
			seq, err := strconv.Atoi(fields[len(fields)-1])
			if err != nil {
				return nil, fail("bad sequence number %q", fields[len(fields)-1])
			}
			cl := &Clause{Seq: seq}
			actionTok := fields[2]
			if cl.ActionHole, err = holeName(actionTok); err != nil {
				return nil, fail("%v", err)
			}
			if cl.ActionHole == "" {
				if cl.Action, err = parseAction(actionTok); err != nil {
					return nil, fail("%v", err)
				}
			}
			rm := c.RouteMaps[name]
			if rm == nil {
				rm = &RouteMap{Name: name}
				c.AddRouteMap(rm)
			}
			rm.Clauses = append(rm.Clauses, cl)
			curMap, curClause = rm, cl

		case fields[0] == "match":
			if curClause == nil {
				return nil, fail("'match' outside a route-map clause")
			}
			m, err := parseMatch(fields)
			if err != nil {
				return nil, fail("%v", err)
			}
			curClause.Matches = append(curClause.Matches, m)

		case fields[0] == "set":
			if curClause == nil {
				return nil, fail("'set' outside a route-map clause")
			}
			s, err := parseSet(fields)
			if err != nil {
				return nil, fail("%v", err)
			}
			curClause.Sets = append(curClause.Sets, s)

		default:
			return nil, fail("unrecognized line %q", line)
		}
	}
	if c == nil {
		return nil, fmt.Errorf("config: no 'router bgp' stanza")
	}
	_ = curMap
	return c, c.Validate()
}

// ParseDeployment reads a multi-router deployment in the dialect
// produced by PrintDeployment: one Print rendering per router, each
// opened by its "router bgp <name>" line. Router names must be unique.
func ParseDeployment(src string) (Deployment, error) {
	var chunks []string
	var cur []string
	flush := func() {
		// Drop chunks with no content (blank lines and comments before
		// the first stanza).
		content := false
		for _, l := range cur {
			if t := strings.TrimSpace(l); t != "" && !strings.HasPrefix(t, "!") {
				content = true
				break
			}
		}
		if content {
			chunks = append(chunks, strings.Join(cur, "\n"))
		}
		cur = nil
	}
	for _, raw := range strings.Split(src, "\n") {
		if strings.HasPrefix(strings.TrimSpace(raw), "router bgp ") {
			flush()
		}
		cur = append(cur, raw)
	}
	flush()
	if len(chunks) == 0 {
		return nil, fmt.Errorf("config: no 'router bgp' stanza")
	}
	dep := Deployment{}
	for _, chunk := range chunks {
		c, err := Parse(chunk)
		if err != nil {
			return nil, err
		}
		if _, ok := dep[c.Router]; ok {
			return nil, fmt.Errorf("config: duplicate configuration for router %s", c.Router)
		}
		dep[c.Router] = c
	}
	return dep, nil
}

func parseAction(tok string) (Action, error) {
	switch tok {
	case "permit":
		return Permit, nil
	case "deny":
		return Deny, nil
	}
	return Deny, fmt.Errorf("bad action %q", tok)
}

// holeName returns the hole a "?name" token names, or "" for a
// concrete token. A bare "?" names no hole and is an error: read as a
// hole with the empty name it would leave its field concrete, at the
// field's zero value.
func holeName(tok string) (string, error) {
	if !strings.HasPrefix(tok, "?") {
		return "", nil
	}
	if tok == "?" {
		return "", fmt.Errorf("hole %q has no name", tok)
	}
	return tok[1:], nil
}

func parseMatch(fields []string) (*Match, error) {
	rest := fields[1:]
	var m *Match
	switch {
	case len(rest) == 4 && rest[0] == "ip" && rest[1] == "address" && rest[2] == "prefix-list":
		m = &Match{Kind: MatchPrefixList}
	case len(rest) == 2 && rest[0] == "community":
		m = &Match{Kind: MatchCommunity}
	case len(rest) == 2 && rest[0] == "next-hop":
		m = &Match{Kind: MatchNextHopIs}
	default:
		return nil, fmt.Errorf("unrecognized match line %q", strings.Join(fields, " "))
	}
	tok := rest[len(rest)-1]
	h, err := holeName(tok)
	if err != nil {
		return nil, err
	}
	if h != "" {
		m.ValueHole = h
		return m, nil
	}
	switch m.Kind {
	case MatchPrefixList:
		m.PrefixList = tok
	case MatchCommunity:
		if m.Community, err = bgp.ParseCommunity(tok); err != nil {
			return nil, err
		}
	case MatchNextHopIs:
		m.NextHop = tok
	}
	return m, nil
}

func parseSet(fields []string) (*Set, error) {
	rest := fields[1:]
	var s *Set
	switch {
	case len(rest) == 2 && rest[0] == "local-preference":
		s = &Set{Kind: SetLocalPref}
	case (len(rest) == 2 || len(rest) == 3 && rest[2] == "additive") && rest[0] == "community":
		s = &Set{Kind: SetCommunity}
	case len(rest) == 2 && rest[0] == "metric":
		s = &Set{Kind: SetMED}
	case len(rest) == 2 && rest[0] == "next-hop":
		s = &Set{Kind: SetNextHopIP}
	default:
		return nil, fmt.Errorf("unrecognized set line %q", strings.Join(fields, " "))
	}
	tok := rest[1]
	h, err := holeName(tok)
	if err != nil {
		return nil, err
	}
	if h != "" {
		s.ParamHole = h
		return s, nil
	}
	switch s.Kind {
	case SetLocalPref:
		if s.LocalPref, err = strconv.Atoi(tok); err != nil {
			return nil, fmt.Errorf("bad local-preference %q", tok)
		}
	case SetCommunity:
		if s.Community, err = bgp.ParseCommunity(tok); err != nil {
			return nil, err
		}
	case SetMED:
		if s.MED, err = strconv.Atoi(tok); err != nil {
			return nil, fmt.Errorf("bad metric %q", tok)
		}
	case SetNextHopIP:
		s.NextHopIP = tok
	}
	return s, nil
}
