package core

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/config"
	"repro/internal/engine"
)

// Delta describes a what-if edit against the explainer's current
// problem: a new deployment (nil means unchanged). ReExplain
// re-explains the edited problem incrementally.
type Delta struct {
	Deployment config.Deployment
}

// DiffStats quantifies how much of a re-explanation the report cache
// answered.
type DiffStats struct {
	// EditedConfigs lists the routers whose configuration text changed,
	// sorted.
	EditedConfigs []string
	// PredictedDirty lists the routers whose sections were recomputed
	// (their locality keys were not in the report cache), sorted.
	PredictedDirty []string
	// Routers is the total number of routers in the report.
	Routers int
	// Spliced and Recomputed count routers whose section was served
	// from the report cache versus recomputed.
	Spliced    int
	Recomputed int
	// FastPath reports that nothing was recomputed: every section came
	// from the report cache.
	FastPath bool
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
// incrementally: it builds the successor session, then writes the
// report through the report cache the sessions share. A router whose
// locality key (what its derived encode reads, plus the lift options)
// is unchanged since some earlier report along the session chain has
// its section served from the cache; the others are explained afresh.
// An edit the encoder cannot see leaves every key alone, so nothing is
// recomputed; an edit at router X changes the key of every router that
// reads X's config, and X's own only when its symbolized config or
// vocabulary changes.
//
// The successor's base is built before the report's first byte only
// when some section misses (or one router is configured), as for every
// report (writeReportLocked), so a sweep the cache answers whole — a
// retune or an undo — encodes nothing. A broken edit still fails as a
// cold report over it would: an edit the encoder rejects changes what
// some router's key digests, so that router misses, and the base
// returns the encoder's error. Every other configured router's key
// digests the edited router's config whole; the edited router's own
// digests its symbolized config, which can hide the fault (a match
// naming an unknown prefix-list is symbolized away), which is why a
// deployment of one configured router always builds its base.
//
// The report is byte-identical to a cold Report over the edited
// deployment: a section is a function of its key's inputs alone.
func (e *Explainer) ReExplainContext(ctx context.Context, delta Delta) (*DiffReport, error) {
	// ReExplain retargets the explainer (Deployment and Session are
	// swapped in place), so it excludes every concurrent query for its
	// whole duration.
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

	newSess := engine.NewSessionFrom(e.Session, e.Reqs, newDep)
	st := DiffStats{EditedConfigs: config.DiffRouters(e.Deployment, newDep), Routers: len(newDep)}
	e.Deployment = newDep
	e.Session = newSess

	before := newSess.ReportCache().Stats()
	var sb strings.Builder
	_, recomputed, err := e.writeReportLocked(ctx, &sb)
	if err != nil {
		return nil, err
	}
	after := newSess.ReportCache().Stats()
	st.PredictedDirty = recomputed
	st.Recomputed = len(recomputed)
	st.Spliced = st.Routers - st.Recomputed
	st.FastPath = st.Recomputed == 0
	st.CacheHits = after.Hits - before.Hits
	st.CacheMisses = after.Misses - before.Misses
	return &DiffReport{Report: sb.String(), Summary: renderDiffSummary(st), Stats: st}, nil
}

// renderDiffSummary renders the changed-routers summary appended to a
// diff report. Deterministic: every list is sorted.
func renderDiffSummary(st DiffStats) string {
	var sb strings.Builder
	sb.WriteString("WHAT-IF DELTA SUMMARY\n")
	sb.WriteString("=====================\n\n")
	fmt.Fprintf(&sb, "edited configs:  %s\n", nameList(st.EditedConfigs))
	fmt.Fprintf(&sb, "dirty routers:   %s (%d of %d)\n",
		nameList(st.PredictedDirty), len(st.PredictedDirty), st.Routers)
	fmt.Fprintf(&sb, "lift stage:      %d spliced, %d recomputed\n", st.Spliced, st.Recomputed)
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
