package core

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/config"
	"repro/internal/engine"
	"repro/internal/spec"
	"repro/internal/synth"
)

// Delta describes a what-if edit against the explainer's current
// problem: a new deployment (nil means unchanged), new requirements
// (nil means unchanged). ReExplain re-explains the edited problem
// incrementally.
type Delta struct {
	Deployment config.Deployment
	Reqs       []spec.Requirement
}

// DiffStats quantifies how much of a re-explanation was saved by the
// delta machinery.
type DiffStats struct {
	// EditedConfigs lists the routers whose configuration text changed
	// (by fingerprint), sorted.
	EditedConfigs []string
	// ModelChanged lists the routers the base-encoding diff attributes
	// the modeled candidate changes to (empty when the edit folds to
	// nothing the encoder models), sorted.
	ModelChanged []string
	// PredictedDirty lists the routers whose raw seed specification
	// differs from the cached generation's (the dirty set the sweep
	// observed), sorted. Empty on the fast path.
	PredictedDirty []string
	// Routers is the total number of routers in the report.
	Routers int
	// Spliced and Recomputed count routers whose lift stage was served
	// from the report cache versus recomputed.
	Spliced    int
	Recomputed int
	// FastPath reports that the edit was proven model-invisible and the
	// previous report was reused verbatim without any sweep.
	FastPath bool
	// ConeAtoms totals, across dirty routers, the number of new-seed
	// conjuncts inside the edits' cone of influence (free-variable
	// signature reachability).
	ConeAtoms int
	// CacheHits and CacheMisses are the report-cache lookups performed
	// by this re-explanation alone.
	CacheHits   int
	CacheMisses int
}

// DiffReport is ReExplain's output: the full report of the edited
// network (byte-identical to a cold Report over the same deployment)
// plus a changed-routers summary and the delta statistics.
type DiffReport struct {
	Report  string
	Summary string
	Stats   DiffStats
}

// ReExplain re-explains the network after an edit, reusing everything
// the edit provably leaves unchanged. See ReExplainContext.
func (e *Explainer) ReExplain(delta Delta) (*DiffReport, error) {
	return e.ReExplainContext(context.Background(), delta)
}

// ReExplainContext applies the delta to the explainer — on return
// (success or failure past validation) the explainer targets the
// edited problem — and produces the edited network's report
// incrementally:
//
//  1. Fingerprint the edit: configs by text, the modeled semantics by
//     diffing the predecessor and successor base encodings (hash-consed
//     candidate terms make this a pointer walk). An edit that changes
//     no modeled term, no vocabulary contribution, and no requirement
//     is answered with the previous report verbatim.
//  2. Otherwise sweep every router through the normal pipeline:
//     encode and simplify run against warm shared caches, and a router
//     whose lift inputs are pointer-identical to its cached generation
//     splices the cached subspecification instead of re-running the
//     lift solvers.
//
// The report is byte-identical to a cold Report over the edited
// deployment: the sweep recomputes every reported figure, and splices
// only artifacts certified identical by hash-consing.
func (e *Explainer) ReExplainContext(ctx context.Context, delta Delta) (*DiffReport, error) {
	// ReExplain retargets the explainer (Deployment, Reqs, Session are
	// swapped in place), so it excludes every concurrent query for its
	// whole duration — including the sweep, whose delta diagnostics
	// are per-explainer state ordinary queries must not observe.
	e.mu.Lock()
	defer e.mu.Unlock()
	newDep := delta.Deployment
	if newDep == nil {
		newDep = e.Deployment
	}
	for name, c := range newDep {
		if !c.Concrete() {
			return nil, fmt.Errorf("core: edited config %s still has holes", name)
		}
	}
	reqs := delta.Reqs
	reqsChanged := false
	if reqs == nil {
		reqs = e.Reqs
	} else {
		reqsChanged = !sameReqs(e.Reqs, reqs)
	}

	edited := config.DiffRouters(e.Deployment, newDep)
	sameSet := sameRouterSet(e.Deployment, newDep)
	modeledSame := sameSet && sameModeledConfigs(e.Deployment, newDep)

	ctx, cancelBudget := e.Opts.Budget.Apply(ctx)
	defer cancelBudget()

	var newSess *engine.Session
	var oldBase *synth.Base
	if e.Session != nil {
		oldBase = e.Session.EnsureBase(ctx)
		newSess = engine.NewSessionFrom(e.Session, reqs, newDep)
	} else {
		newSess = engine.NewSession(e.Net, reqs, newDep, e.Opts.Synth)
		newSess.Budget = e.Opts.Budget
		newSess.VerifyProofs = e.Opts.VerifyProofs
	}
	hits0, misses0 := newSess.ReportCache().Counters()

	newBase := newSess.EnsureBase(ctx)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	bd := synth.DiffBases(oldBase, newBase)

	st := DiffStats{EditedConfigs: edited, Routers: len(newDep)}
	if bd.Comparable {
		st.ModelChanged = bd.Changed
	}

	prior := e.loadLastReport()
	e.Deployment = newDep
	e.Reqs = reqs
	e.Session = newSess

	// Fast path: the requirements are the same; no router appeared or
	// disappeared; every router's modeled fingerprint (config text
	// modulo the values the encoding ignores) and vocabulary
	// contribution are unchanged, so each symbolization surfaces the
	// same holes over the same sorts; and the base diff proves every
	// modeled candidate term pointer-identical. Then every router's
	// seed — hence its whole explanation — is unchanged, and the
	// previous report stands verbatim.
	if !reqsChanged && modeledSame && bd.Comparable && bd.Identical && prior != "" {
		// The successor session shares the report cache, so the retained
		// identity still resolves; re-store to refresh its LRU position.
		e.storeLastReport(prior)
		st.FastPath = true
		st.Spliced = len(newDep)
		return &DiffReport{Report: prior, Summary: renderDiffSummary(st), Stats: st}, nil
	}

	routers := e.reportRouters()
	if len(routers) > 1 {
		// Whole-network sweep ahead: record the scoped encode so each
		// router's derived encode splices its out-of-cone constraints.
		newSess.PrepareScoped(ctx)
	}
	e.diffInfo = make(map[string]*routerDelta, len(routers))
	defer func() { e.diffInfo = nil }()

	exs, err := e.explainSweep(ctx, routers)
	if err != nil {
		return nil, err
	}
	out := e.renderReport(routers, exs)
	e.storeLastReport(out)

	for i, r := range routers {
		if exs[i].liftSpliced {
			st.Spliced++
		} else {
			st.Recomputed++
		}
		if d := e.diffInfo[r]; d != nil && d.seedDelta != 0 {
			st.PredictedDirty = append(st.PredictedDirty, r)
			st.ConeAtoms += d.coneAtoms
		}
	}
	hits1, misses1 := newSess.ReportCache().Counters()
	st.CacheHits = hits1 - hits0
	st.CacheMisses = misses1 - misses0
	return &DiffReport{Report: out, Summary: renderDiffSummary(st), Stats: st}, nil
}

// renderDiffSummary renders the changed-routers summary appended to a
// diff report. Deterministic: every list is sorted.
func renderDiffSummary(st DiffStats) string {
	var sb strings.Builder
	sb.WriteString("WHAT-IF DELTA SUMMARY\n")
	sb.WriteString("=====================\n\n")
	fmt.Fprintf(&sb, "edited configs:  %s\n", nameList(st.EditedConfigs))
	if st.FastPath {
		sb.WriteString("modeled delta:   none (edit is invisible to the encoding)\n")
		fmt.Fprintf(&sb, "fast path:       previous report reused verbatim (%d of %d routers unchanged)\n",
			st.Spliced, st.Routers)
		return sb.String()
	}
	fmt.Fprintf(&sb, "modeled delta:   %s\n", nameList(st.ModelChanged))
	fmt.Fprintf(&sb, "dirty routers:   %s (%d of %d)\n",
		nameList(st.PredictedDirty), len(st.PredictedDirty), st.Routers)
	fmt.Fprintf(&sb, "lift stage:      %d spliced, %d recomputed\n", st.Spliced, st.Recomputed)
	if st.ConeAtoms > 0 {
		fmt.Fprintf(&sb, "edit cone:       %d seed atoms across dirty routers\n", st.ConeAtoms)
	}
	fmt.Fprintf(&sb, "report cache:    %d hits, %d misses\n", st.CacheHits, st.CacheMisses)
	return sb.String()
}

// nameList renders a sorted router list, or "none".
func nameList(names []string) string {
	if len(names) == 0 {
		return "none"
	}
	return strings.Join(names, ", ")
}

// sameReqs compares requirement lists by their printed form (the form
// the encoder consumes).
func sameReqs(a, b []spec.Requirement) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].String() != b[i].String() {
			return false
		}
	}
	return true
}

// sameRouterSet reports whether both deployments configure exactly the
// same routers.
func sameRouterSet(a, b config.Deployment) bool {
	if len(a) != len(b) {
		return false
	}
	for name := range a {
		if _, ok := b[name]; !ok {
			return false
		}
	}
	return true
}

// sameModeledConfigs reports whether every router is unchanged as far
// as the encoder can tell: equal modeled fingerprint (config text with
// the encoding-invisible MED and next-hop values masked — line
// structure still counts, since symbolization surfaces a hole per
// line) and equal contribution to the deployment-dependent vocabulary
// (concrete community tags and next-hop IPs, which size the enum sorts
// every hole ranges over). Per-router equality is required — whole-
// deployment equality is not enough, because explaining router Y
// symbolizes Y away and sees only the other routers' contributions.
func sameModeledConfigs(a, b config.Deployment) bool {
	for name, ca := range a {
		cb, ok := b[name]
		if !ok {
			return false
		}
		if ca == cb {
			continue
		}
		if synth.ModeledFingerprint(ca) != synth.ModeledFingerprint(cb) {
			return false
		}
		if synth.VocabContribFingerprint(ca) != synth.VocabContribFingerprint(cb) {
			return false
		}
	}
	return true
}
