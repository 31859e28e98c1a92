package core

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/config"
	"repro/internal/engine"
	"repro/internal/logic"
	"repro/internal/rewrite"
	"repro/internal/spec"
	"repro/internal/synth"
	"repro/internal/topology"
)

// Options tunes the explanation pipeline.
type Options struct {
	// Synth configures the underlying encoder (must match what the
	// synthesizer used, so the seed specification is consistent with
	// the synthesizer's interpretation — the paper stresses this).
	Synth synth.Options
	// Lift enables the subspecification lifting step (step 4).
	Lift bool
	// VerifyProofs makes every solver record a DRAT-style proof trace
	// and re-validates each Unsat verdict with the independent checker
	// (internal/drat) before the pipeline relies on it. A verdict whose
	// proof fails aborts the query with an error instead of silently
	// standing. Explanations produced with verification on are stamped
	// Verified; the checker's effort lands in the session statistics.
	VerifyProofs bool
}

// DefaultOptions returns the settings used by the experiments.
func DefaultOptions() Options {
	return Options{Synth: synth.DefaultOptions(), Lift: true}
}

// Explanation is the output of Explain for one device.
type Explanation struct {
	// Router is the device under explanation.
	Router string
	// Targets lists the symbolized fields.
	Targets []Target
	// Replaced maps hole names to the concrete values they had in the
	// synthesized configuration.
	Replaced map[string]string
	// HoleVars are the symbolic variables of the seed specification.
	HoleVars map[string]*logic.Var

	// Seed is the seed specification (step 2), the constraint
	// conjunction over the symbolic variables plus the encoder's
	// auxiliary routing variables.
	Seed logic.Term
	// Simplified is the seed after rewrite simplification (step 3).
	Simplified logic.Term
	// Residual lists the simplified conjuncts that still mention the
	// device's symbolic variables — the low-level subspecification the
	// paper's prototype stops at.
	Residual []logic.Term

	// Subspec is the lifted subspecification block (step 4), nil when
	// lifting is disabled.
	Subspec *spec.Block
	// SubspecComplete reports whether the lifted subspecification was
	// verified to be not only necessary but also sufficient (every
	// device behavior satisfying it lets the network meet the global
	// intent).
	SubspecComplete bool

	// Sizes for the experiment tables.
	SeedConstraints int // top-level seed conjuncts
	SeedSize        int // seed term nodes
	SimplifiedSize  int // simplified term nodes
	ResidualSize    int // nodes over conjuncts mentioning device vars
	// Passes counts the fixpoint rounds. Per-rule fire counts come from
	// a counting run over Seed (rewrite.CountFires).
	Passes int

	// Verified reports that proof verification was on for this
	// explanation and every Unsat verdict it rests on carried a proof
	// the independent checker accepted. The verdicts are reached on the
	// simplified seed; a checked proof that the raw seed implies it
	// makes each one hold of the raw seed too. (A failing proof aborts
	// the explanation with an error, so a returned explanation under
	// Options.VerifyProofs is always Verified. A report section served
	// from the report cache was rendered from such an explanation: its
	// key includes the VerifyProofs setting.)
	Verified bool
}

// Explainer explains devices of one synthesized deployment.
//
// An Explainer is safe for concurrent use: read-style queries
// (Explain*, Report*, CheckSubspec*, ExplainComplement*, Stats) may
// run in parallel — they share the session's concurrency-safe caches —
// while ReExplain, which retargets the explainer at an edited problem
// (swapping Deployment and Session in place), excludes every
// other call for its duration. Direct writes to the exported fields
// are not synchronized; set them before sharing the explainer.
type Explainer struct {
	Net        *topology.Network
	Reqs       []spec.Requirement
	Deployment config.Deployment
	Opts       Options
	// Session caches encodings across queries against this deployment
	// (one recorded whole-network encode, derived encodes spliced from
	// it and cached by symbolization targets). NewExplainer installs
	// it; an explainer always has one.
	Session *engine.Session

	// mu is the re-entrancy lock: read-style queries hold it shared,
	// ReExplainContext — the only method that mutates the problem
	// fields — holds it exclusively. Internal helpers never touch it,
	// so a query never re-locks on its own call path.
	mu sync.RWMutex
}

// NewExplainer builds an explainer for a synthesis problem's output.
// The deployment must be concrete (fully synthesized).
func NewExplainer(net *topology.Network, reqs []spec.Requirement, dep config.Deployment, opts Options) (*Explainer, error) {
	for name, c := range dep {
		if !c.Concrete() {
			return nil, fmt.Errorf("core: deployment config %s still has holes", name)
		}
	}
	sess := engine.NewSession(net, reqs, dep, opts.Synth)
	return &Explainer{Net: net, Reqs: reqs, Deployment: dep, Opts: opts, Session: sess}, nil
}

// Stats returns the session's merged statistics (encode effort, cache
// hits, solver work).
func (e *Explainer) Stats() engine.Stats {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.Session.Stats()
}

// encodeKey names a sketch in the session cache: the router under
// symbolization plus the symbolized fields.
func encodeKey(router string, targets []Target) string {
	names := make([]string, len(targets))
	for i, t := range targets {
		names[i] = t.HoleName()
	}
	sort.Strings(names)
	return "explain|" + router + "|" + strings.Join(names, ",")
}

// symbolize is step 1: the router's deployed config with the targets
// replaced by holes (nil without targets), and the values they
// replaced.
func (e *Explainer) symbolize(router string, targets []Target) (*config.Config, map[string]string, error) {
	if len(targets) == 0 {
		return nil, map[string]string{}, nil
	}
	return Symbolize(e.Deployment[router], targets)
}

// encode is step 2: the deployment encoded with the router overridden
// by its symbolized config (nil: nothing overridden), through the
// session cache under encodeKey.
func (e *Explainer) encode(ctx context.Context, router string, targets []Target, sym *config.Config) (*synth.Encoding, error) {
	var overrides map[string]*config.Config
	if sym != nil {
		overrides = map[string]*config.Config{router: sym}
	}
	return e.Session.Encode(ctx, overrides, encodeKey(router, targets))
}

// normalizer builds a simplifier for auxiliary rewriting (lift
// candidates, complement seeds), backed by the session's shared
// normal-form cache. The returned simplifier is single-goroutine
// state; build one per worker.
func (e *Explainer) normalizer() *rewrite.Simplifier {
	return rewrite.NewShared(e.Session.NormCache())
}

// ExplainAll explains every symbolizable field of the router at once:
// "what must this device as a whole do".
func (e *Explainer) ExplainAll(router string) (*Explanation, error) {
	return e.ExplainAllContext(context.Background(), router)
}

// ExplainAllContext is ExplainAll with cancellation: the context's
// deadline bounds every layer, down to the SAT search.
func (e *Explainer) ExplainAllContext(ctx context.Context, router string) (*Explanation, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.explainAll(ctx, router)
}

func (e *Explainer) explainAll(ctx context.Context, router string) (*Explanation, error) {
	// A router with no configuration has no targets: it is trivially
	// unconstrained, the paper's empty subspecification (Scenario 3,
	// R3).
	var targets []Target
	if c, ok := e.Deployment[router]; ok {
		targets = AllTargets(c)
	}
	return e.explainTargets(ctx, router, targets)
}

// Explain generates the explanation for the chosen fields of the
// router. An empty target list yields the trivially empty
// subspecification (the device is not being asked about).
func (e *Explainer) Explain(router string, targets []Target) (*Explanation, error) {
	return e.ExplainContext(context.Background(), router, targets)
}

// ExplainContext is Explain with cancellation: a cancelled or expired
// context aborts encoding and any running solver call promptly.
func (e *Explainer) ExplainContext(ctx context.Context, router string, targets []Target) (*Explanation, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.explainTargets(ctx, router, targets)
}

// explainTargets checks the router, symbolizes its targets (step 1)
// and explains it.
func (e *Explainer) explainTargets(ctx context.Context, router string, targets []Target) (*Explanation, error) {
	if e.Net.Router(router) == nil {
		return nil, fmt.Errorf("core: unknown router %q", router)
	}
	if _, ok := e.Deployment[router]; !ok && len(targets) > 0 {
		return nil, fmt.Errorf("core: router %q has no deployed configuration to symbolize", router)
	}
	sym, replaced, err := e.symbolize(router, targets)
	if err != nil {
		return nil, err
	}
	return e.explain(ctx, router, targets, sym, replaced)
}

// explain runs steps 2 to 4 for a router whose targets step 1 replaced
// by holes in sym (nil without targets); replaced maps each hole to the
// value it replaced.
func (e *Explainer) explain(ctx context.Context, router string, targets []Target, sym *config.Config, replaced map[string]string) (*Explanation, error) {
	// Step 2: the seed specification, produced by the synthesizer's own
	// encoder over the partially symbolic deployment.
	enc, err := e.encode(ctx, router, targets, sym)
	if err != nil {
		return nil, err
	}
	ex := &Explanation{
		Router:          router,
		Targets:         targets,
		Replaced:        replaced,
		HoleVars:        enc.HoleVars,
		Seed:            enc.Conjunction(),
		SeedConstraints: enc.Stats.Constraints,
		SeedSize:        enc.Stats.ConstraintSize,
	}

	// Step 3: simplification to fixpoint, answered from the session's
	// cache on repeat queries (the seed term is pointer-identical when
	// the encoding came from the cache).
	sout := e.Session.Simplify(ex.Seed)
	ex.Simplified = sout.Simplified
	ex.SimplifiedSize = logic.Size(ex.Simplified)
	ex.Passes = sout.Passes

	// Residual: the conjuncts that still constrain the device's
	// variables (the rest is auxiliary routing structure). They are
	// read off the normal form's root, which simplification leaves
	// flat; a conjunct whose variable signature shares no bit with the
	// holes' mentions none of them, which skips the walk for nearly all
	// of the network.
	holeNames := map[string]bool{}
	var holeSig uint64
	for name, v := range ex.HoleVars {
		holeNames[name] = true
		holeSig |= logic.Signature(v)
	}
	conjuncts := []logic.Term{ex.Simplified}
	if a, ok := ex.Simplified.(*logic.Apply); ok && a.Op == logic.OpAnd {
		conjuncts = a.Args
	}
	for _, c := range conjuncts {
		if logic.Signature(c)&holeSig != 0 && mentionsAny(c, holeNames) {
			ex.Residual = append(ex.Residual, c)
			ex.ResidualSize += logic.Size(c)
		}
	}

	// Step 4: lifting. Every lift clause speaks about routes through the
	// router, so its candidate paths are the only paths the lift reads.
	if e.Opts.Lift {
		ex.Subspec, ex.SubspecComplete, err = e.lift(ctx, router, enc, ex, enc.PathInfosThrough(router))
		if err != nil {
			return nil, err
		}
	}
	// Every Unsat verdict this explanation rests on was re-validated by
	// the independent checker (failures abort above with an error).
	ex.Verified = e.Opts.VerifyProofs
	return ex, nil
}

// mentionsAny reports whether t contains any of the named variables.
func mentionsAny(t logic.Term, names map[string]bool) bool {
	found := false
	logic.Walk(t, func(u logic.Term) bool {
		if found {
			return false
		}
		if v, ok := u.(*logic.Var); ok && names[v.Name] {
			found = true
			return false
		}
		return true
	})
	return found
}

// ResidualText renders the residual constraints one per line, the
// low-level view shown in the paper's Figure 6c.
func (ex *Explanation) ResidualText() string {
	if len(ex.Residual) == 0 {
		return "true"
	}
	lines := make([]string, len(ex.Residual))
	for i, c := range ex.Residual {
		lines[i] = c.String()
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// Reduction reports the size reduction factor achieved by
// simplification (seed nodes / simplified nodes).
func (ex *Explanation) Reduction() float64 {
	if ex.SimplifiedSize == 0 {
		return float64(ex.SeedSize)
	}
	return float64(ex.SeedSize) / float64(ex.SimplifiedSize)
}
