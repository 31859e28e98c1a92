package synth

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/bgp"
	"repro/internal/config"
	"repro/internal/logic"
	"repro/internal/spec"
	"repro/internal/topology"
)

// Base is the paper's localization claim turned into a data structure:
// one whole-network encoding of a concrete deployment, recorded
// together with the span of every constraint group — the selection
// group of each (prefix, router) pair and the block of each
// requirement — and, for every router, the candidates whose path
// crosses it. An explanation encoder symbolizes a single router; every
// group whose candidates avoid that router is byte-for-byte the same
// constraint slice (terms are hash-consed, so "the same" is pointer
// equality), and an encoder derived from the base (Base.Encode)
// copies those spans verbatim. Only the candidates through the
// symbolized router (its cone of influence) are re-derived and only
// their groups re-emitted: the candidate work of a derived encode
// scales with the cone. So does what a derived encoding keeps. Its
// candidate graph is the base's maps, shared, overlaid with the
// re-derived groups. Its constraints live only in its interned
// conjunction, whose argument slice Encoding.Constraints is; the
// spliced list, the one network-size copy the encode still makes, is
// garbage once interned. An encode that re-encodes nothing (no
// override changes a router on a candidate path) makes no copy: it
// returns the base's list and seed term. Every derived encode encodes
// the requirements the base was recorded with.
//
// A Base is immutable after construction and safe for concurrent use
// by any number of encoders.
type Base struct {
	net  *topology.Network
	dep  config.Deployment
	opts Options
	reqs []spec.Requirement

	// enc is the recorded whole-network encoding; selGroups and
	// reqGroups partition its constraint list.
	enc       *Encoding
	selGroups []selGroup
	reqGroups []span

	// cands is the recording encoder's candidate graph, kept so a
	// derived encode can rebuild its graph by mapping each candidate
	// (share when clean, re-derive when its path crosses a dirty
	// router) without re-running the BFS. The BFS depends only on the
	// topology and options, so one graph serves every sketch of the
	// deployment.
	cands map[string]map[string][]*candidate
	// through lists, for each router, the non-origin candidates whose
	// path contains it (the candidates a derived encode symbolizing the
	// router re-derives), and groupOf the selGroups index of each
	// (prefix, router) group.
	through map[string][]*candidate
	groupOf map[[2]string]int

	// vocab is the deployment's vocabulary and tags its per-tag config
	// counts, from which every encoder with the base attached derives
	// its own vocabulary (deriveVocab).
	vocab *vocab
	tags  tagCounts
}

// span is a [start, end) slice of an encoder's constraint list, with
// the total term size of the slice (so derived encodes can maintain
// ConstraintSize without re-measuring copied spans).
type span struct {
	start, end int
	size       int
}

// selGroup is the recorded selection-constraint span of one
// (prefix, router) candidate group.
type selGroup struct {
	prefix, node string
	span
}

// NewBase encodes the concrete deployment once, whole-network, through
// the plain encode path, which records the constraint span of every
// selection group and requirement block as it emits them. The
// deployment must be concrete: symbolic holes would leak hole variables
// owned by this encoder into derived encodings.
func NewBase(ctx context.Context, net *topology.Network, dep config.Deployment, opts Options, reqs []spec.Requirement) (*Base, error) {
	for name, c := range dep {
		if !c.Concrete() {
			return nil, fmt.Errorf("synth: base deployment config %s still has holes", name)
		}
	}
	e := NewEncoder(net, dep, opts)
	enc, err := e.EncodeContext(ctx, reqs)
	if err != nil {
		return nil, err
	}
	enc.intern()
	b := &Base{
		net:       net,
		dep:       dep,
		opts:      e.opts,
		reqs:      reqs,
		enc:       enc,
		selGroups: e.selGroups,
		reqGroups: e.reqGroups,
		cands:     e.cands.byPrefix,
		vocab:     e.voc(),
		tags:      countTags(dep),
	}
	b.indexCone()
	return b, nil
}

// indexCone fills through and groupOf from the recorded candidate graph
// and groups. Candidates are listed in prefix, node and discovery order,
// so a derived encode's walk over them is deterministic.
func (b *Base) indexCone() {
	b.through = make(map[string][]*candidate)
	b.groupOf = make(map[[2]string]int, len(b.selGroups))
	for i, g := range b.selGroups {
		b.groupOf[[2]string{g.prefix, g.node}] = i
	}
	prefixes := make([]string, 0, len(b.cands))
	for p := range b.cands {
		prefixes = append(prefixes, p)
	}
	sort.Strings(prefixes)
	for _, p := range prefixes {
		byNode := b.cands[p]
		for _, node := range sortedNodes(byNode) {
			for _, c := range byNode[node] {
				if c.parent == nil {
					continue
				}
				for _, r := range c.path {
					b.through[r] = append(b.through[r], c)
				}
			}
		}
	}
}

// Seed returns the base encoding's conjunction, interned once by
// NewBase: the seed specification of the concrete deployment, which
// every derived seed repeats outside its symbolized router's cone and
// a derived encode that re-encodes nothing returns as its own.
func (b *Base) Seed() logic.Term { return b.enc.Conjunction() }

// PathInfos lists the base encoding's candidates (Encoding.PathInfos):
// over the concrete deployment, every edge condition and rank is ground.
func (b *Base) PathInfos() []PathInfo { return b.enc.PathInfos() }

// Encode encodes the base deployment with each router in overrides
// configured as overrides says (the routers a query changes, such as
// the one it symbolizes) against the base's requirements, splicing
// from the base (encodeScoped). The overrides that differ from the base
// deployment's configs are the encode's dirty set, so nothing is read
// at network size to find it. The result is the encoding NewEncoder
// would produce for a copy of the deployment with the overrides
// applied. Do not modify overrides during the call.
func (b *Base) Encode(ctx context.Context, overrides map[string]*config.Config) (*Encoding, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return b.encoder(overrides).encodeScoped(ctx)
}

// encoder returns the encoder Encode splices with.
func (b *Base) encoder(overrides map[string]*config.Config) *Encoder {
	e := NewEncoder(b.net, b.dep, b.opts)
	e.over = overrides
	e.base = b
	e.dirty = make(map[string]bool, len(overrides))
	for name, c := range overrides {
		if b.dep[name] != c {
			e.dirty[name] = true
		}
	}
	return e
}

// deriveVocab returns the vocabulary of the base deployment with the
// overrides applied, given the dirty ones among them. The result equals
// buildVocab over the overridden deployment, but only the dirty
// routers' old and new configs are walked: their contributions adjust
// the base's per-tag counts, and a tag set is rebuilt only when some
// count crosses zero. Otherwise — always, unless the dirty routers
// added a new tag or held the last mention of one — the base's sort
// objects are reused.
func (b *Base) deriveVocab(overrides map[string]*config.Config, dirty map[string]bool) *vocab {
	delta := tagCounts{comms: map[bgp.Community]int{}, ips: map[string]int{}}
	for name := range dirty {
		if c, ok := b.dep[name]; ok {
			delta.add(c, -1)
		}
		if c := overrides[name]; c != nil {
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
