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
	"repro/internal/sat"
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
	// MaxPatternNodes bounds the length of candidate subspecification
	// path patterns during lifting.
	MaxPatternNodes int
	// Budget bounds the resources explanation queries may spend: a
	// wall-clock deadline, a per-solve conflict cap, and the model
	// cap of the sufficiency check. The zero value means unlimited.
	Budget engine.Budget
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
	return Options{Synth: synth.DefaultOptions(), Lift: true, MaxPatternNodes: 8}
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
	// Passes counts the fixpoint rounds; SimplifyTrace the term size
	// after each pass. Per-rule fire counts are recounted on demand
	// from the session's normal-form cache (rewrite.Cache.Recount).
	Passes        int
	SimplifyTrace []int

	// Verified reports that proof verification was on for this
	// explanation and every Unsat verdict it rests on carried a proof
	// the independent checker accepted. The verdicts are reached on the
	// simplified seed; a checked proof that the raw seed implies it
	// makes each one hold of the raw seed too. (A failing proof aborts
	// the explanation with an error, so a returned explanation under
	// Options.VerifyProofs is always Verified. A spliced explanation
	// — a repeat query, or a router Explainer.ReExplain found clean —
	// carries the verdicts, and proofs, of the run that first computed
	// it; the splice gate only accepts entries produced under the same
	// VerifyProofs setting.)
	Verified bool
}

// Explainer explains devices of one synthesized deployment.
//
// An Explainer is safe for concurrent use: read-style queries
// (Explain*, Report*, CheckSubspec*, ExplainComplement*, Stats) may
// run in parallel — they share the session's concurrency-safe caches —
// while ReExplain, which retargets the explainer at an edited problem
// (swapping Deployment, Reqs, and Session in place), excludes every
// other call for its duration. Direct writes to the exported fields
// are not synchronized; set them before sharing the explainer.
type Explainer struct {
	Net        *topology.Network
	Reqs       []spec.Requirement
	Deployment config.Deployment
	Opts       Options
	// Session caches encodings across queries against this deployment
	// (one base encode of the invariant structure, derived encodes
	// cached by symbolization targets). NewExplainer installs one; a
	// nil Session falls back to a fresh full encode per query, which
	// produces identical results, only slower.
	Session *engine.Session

	// mu is the re-entrancy lock: read-style queries hold it shared,
	// ReExplainContext — the only method that mutates the problem
	// fields — holds it exclusively. Internal helpers never touch it,
	// so a query never re-locks on its own call path.
	mu sync.RWMutex

	// lastReportKey/Sum/Len identify the most recent whole-deployment
	// report: the rendered bytes live in the session's byte-capped
	// report cache under lastReportKey, the explainer holds only the
	// key, a sha256 content hash, and the length. ReExplain's fast path
	// reloads the bytes through loadLastReport, which verifies the hash
	// — an evicted or displaced entry costs a re-sweep, never a wrong
	// report, and the explainer itself no longer pins a full document
	// in memory. Guarded by reportMu (a leaf lock: concurrent
	// ReportContext calls share mu but still race on these fields
	// without it).
	reportMu      sync.Mutex
	lastReportKey string
	lastReportSum [32]byte
	lastReportLen int64

	// diffInfo collects per-router delta diagnostics during a ReExplain
	// sweep (nil outside one); diffMu guards it against the parallel
	// report workers.
	diffMu   sync.Mutex
	diffInfo map[string]*routerDelta
}

// routerDelta is one router's delta diagnostics from a ReExplain
// sweep: whether its lift stage was spliced, how many raw seed
// conjuncts changed against the cached generation (-1 when no cached
// generation exists), and how many conjuncts of the new seed fall in
// the edit's cone of influence.
type routerDelta struct {
	spliced   bool
	seedDelta int
	coneAtoms int
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
	sess.Budget = opts.Budget
	sess.VerifyProofs = opts.VerifyProofs
	return &Explainer{Net: net, Reqs: reqs, Deployment: dep, Opts: opts, Session: sess}, nil
}

// Stats returns the session's merged statistics (encode effort, cache
// hits, solver work). Zero when the explainer has no session.
func (e *Explainer) Stats() engine.Stats {
	e.mu.RLock()
	defer e.mu.RUnlock()
	if e.Session == nil {
		return engine.Stats{}
	}
	return e.Session.Stats()
}

// encodeKey names a sketch in the session cache: the router under
// symbolization plus the symbolized fields. ExplainAll and
// CheckSubspec symbolize the same fields of the same router and so
// share one cached encoding.
func encodeKey(router string, targets []Target) string {
	names := make([]string, len(targets))
	for i, t := range targets {
		names[i] = t.HoleName()
	}
	sort.Strings(names)
	return "explain|" + router + "|" + strings.Join(names, ",")
}

// encodeSeed runs the pipeline's steps 1 and 2 for the router: it
// symbolizes the targets in a copy of the deployment, then encodes that
// sketch under encodeKey, through the session cache. With targets, the
// router must have a deployed configuration. replaced maps each hole
// to the value it replaced (empty without targets).
func (e *Explainer) encodeSeed(ctx context.Context, router string, targets []Target) (*synth.Encoding, map[string]string, error) {
	sketch := make(config.Deployment, len(e.Deployment))
	for name, c := range e.Deployment {
		sketch[name] = c
	}
	replaced := map[string]string{}
	if len(targets) > 0 {
		sym, rep, err := Symbolize(e.Deployment[router], targets)
		if err != nil {
			return nil, nil, err
		}
		sketch[router] = sym
		replaced = rep
	}
	enc, err := e.encode(ctx, sketch, encodeKey(router, targets))
	if err != nil {
		return nil, nil, err
	}
	return enc, replaced, nil
}

// encode produces the sketch's encoding, through the session cache
// when one is installed.
func (e *Explainer) encode(ctx context.Context, sketch config.Deployment, key string) (*synth.Encoding, error) {
	if e.Session != nil {
		return e.Session.Encode(ctx, sketch, key)
	}
	return synth.NewEncoder(e.Net, sketch, e.Opts.Synth).EncodeContext(ctx, e.Reqs)
}

// addSolverStats folds SAT effort into the session statistics.
func (e *Explainer) addSolverStats(st sat.Stats) {
	if e.Session != nil {
		e.Session.AddSolverStats(st)
	}
}

// simplify normalizes a seed term, through the session's
// simplification cache when one is installed.
func (e *Explainer) simplify(seed logic.Term) *engine.SimplifyOutcome {
	if e.Session != nil {
		return e.Session.Simplify(seed)
	}
	simp := rewrite.New()
	return &engine.SimplifyOutcome{
		Simplified: simp.Simplify(seed),
		Passes:     simp.Passes,
		Trace:      append([]int(nil), simp.Trace...),
	}
}

// normalizer builds a simplifier for auxiliary rewriting (lift
// candidates, complement seeds), backed by the session's shared
// normal-form cache when a session is installed. The returned
// simplifier is single-goroutine state; build one per worker.
func (e *Explainer) normalizer() *rewrite.Simplifier {
	if e.Session != nil {
		return rewrite.NewShared(e.Session.NormCache())
	}
	return rewrite.New()
}

// ExplainAll explains every symbolizable field of the router at once:
// "what must this device as a whole do".
func (e *Explainer) ExplainAll(router string) (*Explanation, error) {
	return e.ExplainAllContext(context.Background(), router)
}

// ExplainAllContext is ExplainAll with cancellation and the budget's
// deadline applied.
func (e *Explainer) ExplainAllContext(ctx context.Context, router string) (*Explanation, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	ctx, cancel := e.Opts.Budget.Apply(ctx)
	defer cancel()
	return e.explainAll(ctx, router)
}

func (e *Explainer) explainAll(ctx context.Context, router string) (*Explanation, error) {
	c, ok := e.Deployment[router]
	if !ok {
		// A router with no configuration is trivially unconstrained:
		// the paper's empty subspecification (Scenario 3, R3).
		if e.Net.Router(router) == nil {
			return nil, fmt.Errorf("core: unknown router %q", router)
		}
		return e.explain(ctx, router, nil)
	}
	return e.explain(ctx, router, AllTargets(c))
}

// Explain generates the explanation for the chosen fields of the
// router. An empty target list yields the trivially empty
// subspecification (the device is not being asked about).
func (e *Explainer) Explain(router string, targets []Target) (*Explanation, error) {
	return e.ExplainContext(context.Background(), router, targets)
}

// ExplainContext is Explain with cancellation and the budget's
// deadline applied: a cancelled or expired context aborts encoding and
// any running solver call promptly.
func (e *Explainer) ExplainContext(ctx context.Context, router string, targets []Target) (*Explanation, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	ctx, cancel := e.Opts.Budget.Apply(ctx)
	defer cancel()
	return e.explain(ctx, router, targets)
}

func (e *Explainer) explain(ctx context.Context, router string, targets []Target) (*Explanation, error) {
	node := e.Net.Router(router)
	if node == nil {
		return nil, fmt.Errorf("core: unknown router %q", router)
	}
	if _, ok := e.Deployment[router]; !ok && len(targets) > 0 {
		return nil, fmt.Errorf("core: router %q has no deployed configuration to symbolize", router)
	}

	// Steps 1 and 2: partial symbolization, then the seed specification,
	// produced by the synthesizer's own encoder over the partially
	// symbolic deployment.
	enc, replaced, err := e.encodeSeed(ctx, router, targets)
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
	sout := e.simplify(ex.Seed)
	ex.Simplified = sout.Simplified
	ex.SimplifiedSize = logic.Size(ex.Simplified)
	ex.Passes = sout.Passes
	ex.SimplifyTrace = append([]int(nil), sout.Trace...)

	// Residual: the conjuncts that still constrain the device's
	// variables (the rest is auxiliary routing structure).
	holeNames := map[string]bool{}
	for name := range ex.HoleVars {
		holeNames[name] = true
	}
	for _, c := range logic.Conjuncts(ex.Simplified) {
		if mentionsAny(c, holeNames) {
			ex.Residual = append(ex.Residual, c)
			ex.ResidualSize += logic.Size(c)
		}
	}

	// Step 4: lifting — spliced from the cross-deployment report cache
	// when the cached entry was computed from the live encoding's exact
	// lift inputs (a repeat query, or a router an edit left alone),
	// recomputed (and cached) otherwise.
	if e.Opts.Lift {
		liftKey := "lift|" + encodeKey(router, targets)
		var cache *engine.ReportCache
		if e.Session != nil {
			cache = e.Session.ReportCache()
		}
		spliced := false
		if cache != nil {
			if v, ok := cache.Get(liftKey); ok {
				if ent, ok := v.(*liftEntry); ok {
					if e.liftEntryValid(ent, ex, enc) {
						ex.Subspec = ent.block
						ex.SubspecComplete = ent.complete
						spliced = true
					}
					e.noteDelta(router, ent, enc, spliced)
				}
			} else {
				e.noteMissing(router)
			}
		}
		if !spliced {
			block, complete, err := e.lift(ctx, router, enc, ex)
			if err != nil {
				return nil, err
			}
			ex.Subspec = block
			ex.SubspecComplete = complete
		}
		if cache != nil {
			// Refresh even on a splice: the entry's raw seed must track
			// the current generation so the next delta diffs against it.
			ent := &liftEntry{
				seed:       enc.Constraints,
				simplified: ex.Simplified,
				holes:      ex.HoleVars,
				paths:      enc.PathInfos(),
				optsSig:    e.liftOptsSig(),
				block:      ex.Subspec,
				complete:   ex.SubspecComplete,
			}
			cache.Put(liftKey, ent, ent.size())
		}
	}
	// Every Unsat verdict this explanation rests on was re-validated by
	// the independent checker (failures abort above with an error).
	ex.Verified = e.Opts.VerifyProofs
	return ex, nil
}

// liftEntry is one router's cached lift outcome in the
// cross-deployment report cache, together with everything needed to
// decide whether it can be spliced into a later generation's report.
// The lift stage is a function of (simplified normal form, candidate
// paths, hole variables, lift options) alone, and terms are
// hash-consed, so pointer equality on each certifies the same inputs
// (variables intern with their sort, so a changed enum domain yields a
// different pointer). See DESIGN.md ("Incremental re-explanation").
type liftEntry struct {
	seed       []logic.Term // raw seed conjuncts of the generation that produced the entry
	simplified logic.Term
	holes      map[string]*logic.Var
	paths      []synth.PathInfo
	optsSig    string
	block      *spec.Block
	complete   bool
}

// size estimates the marginal bytes retaining the entry costs the
// report cache. Terms and hole variables are hash-consed and alive in
// the session's interner regardless, so they count at pointer size;
// the slices, strings, and the lifted block are what the entry pins.
func (ent *liftEntry) size() int64 {
	size := int64(256) // struct, map and slice headers
	size += int64(len(ent.seed)) * 8
	size += int64(len(ent.holes)) * 48
	for i := range ent.paths {
		p := &ent.paths[i]
		size += 96 + int64(len(p.Prefix)) + int64(len(p.EdgeConds))*8
		for _, n := range p.Path {
			size += 24 + int64(len(n))
		}
	}
	if ent.block != nil {
		size += 64
		for _, r := range ent.block.Reqs {
			size += int64(len(r.String())) + 48
		}
	}
	return size
}

// liftOptsSig captures every option the lift stage's outcome depends
// on; entries produced under a different signature never splice.
func (e *Explainer) liftOptsSig() string {
	return fmt.Sprintf("p%d|m%d|c%d|v%t",
		e.Opts.MaxPatternNodes, e.Opts.Budget.ModelCap(), e.Opts.Budget.MaxConflicts, e.Opts.VerifyProofs)
}

// liftEntryValid reports whether the cached entry's lift inputs are
// identical to the live encoding's. Every term comparison is a pointer
// comparison (hash-consing).
func (e *Explainer) liftEntryValid(ent *liftEntry, ex *Explanation, enc *synth.Encoding) bool {
	if ent.optsSig != e.liftOptsSig() || ent.simplified != ex.Simplified {
		return false
	}
	if len(ent.holes) != len(ex.HoleVars) {
		return false
	}
	for n, v := range ex.HoleVars {
		if ent.holes[n] != v {
			return false
		}
	}
	paths := enc.PathInfos()
	if len(ent.paths) != len(paths) {
		return false
	}
	for i := range paths {
		a, b := &ent.paths[i], &paths[i]
		if a.Prefix != b.Prefix || a.Sel != b.Sel || a.LP != b.LP ||
			len(a.EdgeConds) != len(b.EdgeConds) || len(a.Path) != len(b.Path) {
			return false
		}
		for j := range a.EdgeConds {
			if a.EdgeConds[j] != b.EdgeConds[j] {
				return false
			}
		}
		for j := range a.Path {
			if a.Path[j] != b.Path[j] {
				return false
			}
		}
	}
	return true
}

// noteDelta records one router's delta diagnostics during a ReExplain
// sweep: the raw-seed symmetric difference against the cached
// generation and, when non-empty, the size of the edit's cone of
// influence within the new seed (rewrite.Cone over the changed
// conjuncts' free-variable signatures).
func (e *Explainer) noteDelta(router string, ent *liftEntry, enc *synth.Encoding, spliced bool) {
	if e.diffInfo == nil {
		return
	}
	old := make(map[logic.Term]bool, len(ent.seed))
	for _, c := range ent.seed {
		old[c] = true
	}
	var editSig uint64
	delta := 0
	for _, c := range enc.Constraints {
		if old[c] {
			delete(old, c)
			continue
		}
		delta++
		editSig |= logic.Signature(c)
	}
	for c := range old {
		delta++
		editSig |= logic.Signature(c)
	}
	cone := 0
	if delta > 0 {
		cone = len(rewrite.Cone(enc.Constraints, editSig))
	}
	e.diffMu.Lock()
	e.diffInfo[router] = &routerDelta{spliced: spliced, seedDelta: delta, coneAtoms: cone}
	e.diffMu.Unlock()
}

// noteMissing records that a router had no cached generation to diff
// against (treated as dirty: nothing is known about it).
func (e *Explainer) noteMissing(router string) {
	if e.diffInfo == nil {
		return
	}
	e.diffMu.Lock()
	e.diffInfo[router] = &routerDelta{seedDelta: -1}
	e.diffMu.Unlock()
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
	out := lines[0]
	for _, l := range lines[1:] {
		out += "\n" + l
	}
	return out
}

// Reduction reports the size reduction factor achieved by
// simplification (seed nodes / simplified nodes).
func (ex *Explanation) Reduction() float64 {
	if ex.SimplifiedSize == 0 {
		return float64(ex.SeedSize)
	}
	return float64(ex.SeedSize) / float64(ex.SimplifiedSize)
}
