package synth

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"repro/internal/bgp"
	"repro/internal/config"
	"repro/internal/logic"
	"repro/internal/topology"
)

// Base is the invariant structure of a concrete deployment's encoding:
// every candidate propagation path with its fully-evaluated edge
// condition and route state. Explanation queries symbolize one router
// at a time and re-encode; every candidate path that avoids the
// symbolized router is identical across those encodings, so a Base
// built once lets each derived encoder (see Encoder.WithBase) skip the
// symbolic policy evaluation for the unchanged bulk of the network.
//
// A Base is immutable after construction and safe for concurrent use
// by any number of encoders: the candidates it holds are never
// mutated, and the terms they carry are immutable by construction.
type Base struct {
	net  *topology.Network
	dep  config.Deployment
	opts Options
	// cands[prefix][pathKey] indexes the base candidates.
	cands map[string]map[string]*candidate
	// vocab is the deployment's vocabulary and tags its per-tag config
	// counts, from which every encoder with the base attached derives
	// its own vocabulary (deriveVocab).
	vocab *vocab
	tags  tagCounts
}

// NewBase enumerates the candidate structure of a concrete deployment.
// The deployment must be concrete: symbolic holes would leak hole
// variables owned by this throwaway encoder into derived encodings.
func NewBase(ctx context.Context, net *topology.Network, dep config.Deployment, opts Options) (*Base, error) {
	return newBase(ctx, net, dep, opts, nil)
}

// NewBaseFrom is NewBase reusing a prior base of an edited variant of
// the same deployment: candidates whose propagation path avoids every
// router whose config pointer differs from the prior's deployment are
// copied (pointer-shared) from the prior instead of re-derived. The
// result is identical to a fresh NewBase — sharing is an exactness-
// preserving optimization (see Encoder.WithBase) — but pointer-shared
// candidates additionally let DiffBases compare the two bases in O(1)
// per unchanged candidate. A nil prior degrades to NewBase.
func NewBaseFrom(ctx context.Context, net *topology.Network, dep config.Deployment, opts Options, prior *Base) (*Base, error) {
	return newBase(ctx, net, dep, opts, prior)
}

func newBase(ctx context.Context, net *topology.Network, dep config.Deployment, opts Options, prior *Base) (*Base, error) {
	for name, c := range dep {
		if !c.Concrete() {
			return nil, fmt.Errorf("synth: base deployment config %s still has holes", name)
		}
	}
	e := NewEncoder(net, dep, opts).WithBase(prior)
	if err := e.enumerateCandidates(ctx); err != nil {
		return nil, err
	}
	b := &Base{
		net:   net,
		dep:   dep,
		opts:  e.opts,
		cands: make(map[string]map[string]*candidate, len(e.cands)),
		vocab: e.voc(),
		tags:  countTags(dep),
	}
	for prefix, byNode := range e.cands {
		m := map[string]*candidate{}
		for _, cs := range byNode {
			for _, c := range cs {
				m[strings.Join(c.path, "_")] = c
			}
		}
		b.cands[prefix] = m
	}
	return b, nil
}

// deriveVocab returns the vocabulary of a sketch that differs from the
// base deployment only at the dirty routers. The result equals
// buildVocab(net, sketch), but only the dirty routers' old and new
// configs are walked: their contributions adjust the base's per-tag
// counts, and a tag set is rebuilt only when some count crosses zero.
// Otherwise — always, unless the dirty routers added a new tag or held
// the last mention of one — the base's sort objects are reused.
func (b *Base) deriveVocab(sketch config.Deployment, dirty map[string]bool) *vocab {
	delta := tagCounts{comms: map[bgp.Community]int{}, ips: map[string]int{}}
	for name := range dirty {
		if c, ok := b.dep[name]; ok {
			delta.add(c, -1)
		}
		if c, ok := sketch[name]; ok {
			delta.add(c, 1)
		}
	}
	commsMoved := crossesZero(b.tags.comms, delta.comms)
	ipsMoved := crossesZero(b.tags.ips, delta.ips)
	if !commsMoved && !ipsMoved {
		return b.vocab
	}
	v := *b.vocab
	if commsMoved {
		v.setCommunities(positive(b.tags.comms, delta.comms))
	}
	if ipsMoved {
		v.setIPs(positive(b.tags.ips, delta.ips))
	}
	return &v
}

// NumCandidates reports how many candidate paths the base holds.
func (b *Base) NumCandidates() int {
	n := 0
	for _, m := range b.cands {
		n += len(m)
	}
	return n
}

// BaseDiff is the outcome of comparing two bases (DiffBases).
type BaseDiff struct {
	// Comparable is false when the bases were built over different
	// topologies or candidate-enumeration options, in which case no
	// finer comparison was attempted (Identical is false and EditSig
	// covers every variable).
	Comparable bool
	// Identical reports that every candidate's symbolic edge condition
	// and route state is pointer-identical between the bases: the two
	// deployments are indistinguishable to the encoder, so every
	// derived encoding — and everything downstream of it — coincides.
	Identical bool
	// Changed lists, sorted, the endpoints of edges that introduced a
	// differing candidate: the routers whose modeled contribution the
	// edit actually reached. Edges inheriting a difference from an
	// upstream hop are not re-attributed (their introduction point
	// already is).
	Changed []string
	// EditSig is the union of the free-variable Bloom signatures
	// (logic.Signature) of every differing candidate's old and new
	// terms — the seed-level footprint of the edit, feeding the cone
	// computation (rewrite.Cone).
	EditSig uint64
}

// DiffBases compares the modeled contribution of every candidate path
// between two bases of the same topology. Terms are hash-consed, so
// "unchanged" is a pointer comparison per candidate regardless of how
// the bases were built; NewBaseFrom merely makes the bases cheaper to
// produce.
func DiffBases(old, nu *Base) *BaseDiff {
	if old == nil || nu == nil || old.net != nu.net || old.opts != nu.opts {
		return &BaseDiff{Comparable: false, EditSig: ^uint64(0)}
	}
	d := &BaseDiff{Comparable: true, Identical: true}
	changed := map[string]bool{}

	prefixes := map[string]bool{}
	for p := range old.cands {
		prefixes[p] = true
	}
	for p := range nu.cands {
		prefixes[p] = true
	}
	for prefix := range prefixes {
		oc, nc := old.cands[prefix], nu.cands[prefix]
		keys := make([]string, 0, len(oc))
		seen := map[string]bool{}
		for k := range oc {
			keys = append(keys, k)
			seen[k] = true
		}
		for k := range nc {
			if !seen[k] {
				keys = append(keys, k)
			}
		}
		// Shortest paths first, so a differing candidate knows whether
		// its parent already differed (the difference is inherited, not
		// introduced on this edge).
		sort.Slice(keys, func(i, j int) bool {
			ci, cj := strings.Count(keys[i], "_"), strings.Count(keys[j], "_")
			if ci != cj {
				return ci < cj
			}
			return keys[i] < keys[j]
		})
		dirtyKey := map[string]bool{}
		for _, k := range keys {
			co, cn := oc[k], nc[k]
			if candidateSame(co, cn) {
				continue
			}
			d.Identical = false
			dirtyKey[k] = true
			d.EditSig |= candidateSig(co) | candidateSig(cn)
			path := strings.Split(k, "_")
			if len(path) < 2 {
				continue
			}
			parentKey := strings.Join(path[:len(path)-1], "_")
			if dirtyKey[parentKey] {
				continue // inherited from upstream; attributed there
			}
			changed[path[len(path)-2]] = true
			changed[path[len(path)-1]] = true
		}
	}
	for r := range changed {
		d.Changed = append(d.Changed, r)
	}
	sort.Strings(d.Changed)
	return d
}

// candidateSame reports whether two candidates carry the same symbolic
// content. Terms are canonical in one interner, so every comparison is
// a pointer comparison.
func candidateSame(a, b *candidate) bool {
	if a == nil || b == nil {
		return a == b
	}
	if a == b {
		return true
	}
	if a.edgeCond != b.edgeCond {
		return false
	}
	sa, sb := a.state, b.state
	if (sa == nil) != (sb == nil) {
		return false
	}
	if sa == nil || sa == sb {
		return true
	}
	if sa.lp != sb.lp || sa.nextHop != sb.nextHop || len(sa.comms) != len(sb.comms) {
		return false
	}
	for c, t := range sa.comms {
		if sb.comms[c] != t {
			return false
		}
	}
	return true
}

// candidateSig unions the free-variable signatures of a candidate's
// symbolic terms (edge condition, local-pref rank, community
// conditions, selection variable).
func candidateSig(c *candidate) uint64 {
	if c == nil {
		return 0
	}
	var sig uint64
	if c.edgeCond != nil {
		sig |= logic.Signature(c.edgeCond)
	}
	if c.sel != nil {
		sig |= logic.Signature(c.sel)
	}
	if c.state != nil {
		if c.state.lp != nil {
			sig |= logic.Signature(c.state.lp)
		}
		for _, t := range c.state.comms {
			sig |= logic.Signature(t)
		}
	}
	return sig
}
