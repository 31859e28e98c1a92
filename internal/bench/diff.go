package bench

import (
	"context"
	"fmt"
	"strings"
	"time"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/netgen"
)

// DiffEntry is one (workload, edit-kind) measurement of the incremental
// re-explanation machinery: the wall time of a cold full report over
// the edited network versus re-explaining the same edit through a warm
// explainer, plus the delta statistics ReExplain reports. ByteIdentical
// is the correctness bit — the incremental report compared byte for
// byte against the cold one.
type DiffEntry struct {
	Workload string
	EditKind string
	// ColdMS is a cold full report over the edited network (fresh
	// explainer, no session to reuse); IncrementalMS is ReExplain of the
	// same edit against a warm explainer.
	ColdMS        float64
	IncrementalMS float64
	Speedup       float64
	Routers       int
	// DirtyRouters is the size of the dirty set (routers whose sections
	// were recomputed); Spliced and Recomputed split the sections
	// between the report cache and fresh explanation; FastPath marks
	// re-explanations that recomputed nothing.
	DirtyRouters int
	Spliced      int
	Recomputed   int
	FastPath     bool
	// CacheHits and CacheMisses are the report-cache lookups the
	// re-explanation performed.
	CacheHits     int
	CacheMisses   int
	ByteIdentical bool
}

// diffEditKinds is the edit-family sweep, one representative edit per
// family per workload. The families deliberately span the section
// cache's regimes: action-flip and pref-change at X are visible to the
// encoding, so every other router's locality key changes and only X's
// own section is reused; nexthop-change toggles between addresses the
// vocabulary always holds, which no encoding reads, so every section is
// reused; med-change on a clause without a metric line adds one,
// growing X's symbolization surface, so only X's section is
// recomputed. The separately staged med-retune — changing an EXISTING
// metric's value — reuses every section too.
var diffEditKinds = []string{"action-flip", "pref-change", "med-change", "nexthop-change"}

// editCandidate is one single-edit variant of a workload's deployment.
type editCandidate struct {
	dep  config.Deployment
	edit netgen.Edit
}

// editCandidates enumerates deterministic single edits of the wanted
// family by scanning Perturb seeds, deduplicated by edit site. Several
// candidates are returned because a behavior-visible edit can make the
// intent unsatisfiable — the benchmark then moves to the next site.
func editCandidates(dep config.Deployment, kind string, max int) []editCandidate {
	seen := map[string]bool{}
	var out []editCandidate
	for seed := int64(0); seed < 64 && len(out) < max; seed++ {
		edited, edits := netgen.Perturb(dep, seed, 1)
		if len(edits) != 1 || edits[0].Kind != kind {
			continue
		}
		key := edits[0].Router + "|" + edits[0].Detail
		if seen[key] {
			continue
		}
		seen[key] = true
		out = append(out, editCandidate{edited, edits[0]})
	}
	return out
}

// diffEntries runs the full measurement: per workload, warm one
// explainer with a full report, then for each edit family measure
// ReExplain of a single representative edit and compare — in bytes and
// in wall time — against a cold full report over the edited network.
// Between families the warm explainer is steered back to the baseline
// deployment through the same incremental path, so every measured edit
// starts from a session warmed on the unedited network.
func diffEntries(ctx context.Context, quick bool) ([]DiffEntry, error) {
	var entries []DiffEntry
	err := eachWorkload(ctx, quick, func(w *workload) error {
		dep := w.res.Deployment
		e, err := core.NewExplainer(w.net, w.reqs, dep, w.opts)
		if err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		if _, err := e.ReportContext(ctx); err != nil {
			return fmt.Errorf("%s: warm report: %w", w.name, err)
		}
		onBaseline := true
		// rewarm steers the explainer back to the baseline deployment,
		// rebuilding it cold if the incremental revert fails.
		rewarm := func() error {
			if onBaseline {
				return nil
			}
			if _, err := e.ReExplainContext(ctx, core.Delta{Deployment: dep}); err == nil {
				onBaseline = true
				return nil
			}
			e, err = core.NewExplainer(w.net, w.reqs, dep, w.opts)
			if err != nil {
				return err
			}
			if _, err := e.ReportContext(ctx); err != nil {
				return err
			}
			onBaseline = true
			return nil
		}
		// measure re-explains one edit through the warm explainer and,
		// on success, records an entry verified against a cold report.
		// ok=false means the edit broke the intent (a cold explainer
		// rejects it the same way) and the caller should try another.
		measure := func(kind string, cand editCandidate) (bool, error) {
			start := time.Now()
			dr, err := e.ReExplainContext(ctx, core.Delta{Deployment: cand.dep})
			onBaseline = false
			if err != nil {
				if ctx.Err() != nil {
					return false, ctx.Err()
				}
				return false, nil
			}
			incrMS := float64(time.Since(start).Microseconds()) / 1000

			cold, err := core.NewExplainer(w.net, w.reqs, cand.dep, w.opts)
			if err != nil {
				return false, fmt.Errorf("%s %s: cold explainer: %w", w.name, kind, err)
			}
			start = time.Now()
			want, err := cold.ReportContext(ctx)
			if err != nil {
				return false, fmt.Errorf("%s %s: cold report: %w", w.name, kind, err)
			}
			coldMS := float64(time.Since(start).Microseconds()) / 1000

			speedup := 0.0
			if incrMS > 0 {
				speedup = coldMS / incrMS
			}
			entries = append(entries, DiffEntry{
				Workload:      w.name,
				EditKind:      kind,
				ColdMS:        coldMS,
				IncrementalMS: incrMS,
				Speedup:       speedup,
				Routers:       dr.Stats.Routers,
				DirtyRouters:  len(dr.Stats.PredictedDirty),
				Spliced:       dr.Stats.Spliced,
				Recomputed:    dr.Stats.Recomputed,
				FastPath:      dr.Stats.FastPath,
				CacheHits:     dr.Stats.CacheHits,
				CacheMisses:   dr.Stats.CacheMisses,
				ByteIdentical: dr.Report == want,
			})
			return true, nil
		}

		for _, kind := range diffEditKinds {
			for _, cand := range editCandidates(dep, kind, 6) {
				if err := rewarm(); err != nil {
					return fmt.Errorf("%s: rewarm baseline: %w", w.name, err)
				}
				ok, err := measure(kind, cand)
				if err != nil {
					return err
				}
				if ok {
					break
				}
			}
		}

		// med-retune: changing the VALUE of an existing metric — the
		// canonical model-invisible edit an operator makes ("retune the
		// link weight"). Synthesized deployments carry no metric lines,
		// so stage one med-change to introduce the line (that deployment
		// becomes the warm baseline) and measure retuning the same line.
		if cands := editCandidates(dep, "med-change", 1); len(cands) == 1 {
			staged, first := cands[0].dep, cands[0].edit
			site, _, _ := strings.Cut(first.Detail, ":")
			for _, cand := range editCandidates(staged, "med-change", 8) {
				if cand.edit.Router != first.Router || !strings.HasPrefix(cand.edit.Detail, site+":") {
					continue
				}
				if _, err := e.ReExplainContext(ctx, core.Delta{Deployment: staged}); err != nil {
					break
				}
				onBaseline = false
				if _, err := measure("med-retune", cand); err != nil {
					return err
				}
				break
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return entries, nil
}

// DiffTable measures the incremental what-if machinery (extension
// Ext-4): cold-report versus ReExplain wall time for one representative
// edit of every family, over the seed scenarios and (unless quick) the
// netgen Grid/FatTree/Random presets.
func DiffTable(ctx context.Context, quick bool) (*Table, error) {
	entries, err := diffEntries(ctx, quick)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "diff (extension Ext-4)",
		Caption: "Incremental re-explanation after a single-router edit. cold-ms is a full report by a fresh explainer over the edited network; incr-ms re-explains the same edit through an explainer warmed on the unedited network. dirty is the number of routers whose sections were recomputed (their locality keys, digests of what each section's encode reads plus the lift options, were not in the report cache); spliced/recomp split the sections between the report cache and fresh explanation; fast marks edits that recomputed nothing; cache is report-cache hits/misses, one lookup per router; bytes-ok confirms the incremental report is byte-identical to the cold one.",
		Columns: []string{"workload", "edit", "cold-ms", "incr-ms", "speedup", "routers", "dirty", "spliced", "recomp", "fast", "cache", "bytes-ok"},
	}
	for _, en := range entries {
		t.AddRow(en.Workload, en.EditKind,
			fmt.Sprintf("%.1f", en.ColdMS), fmt.Sprintf("%.1f", en.IncrementalMS),
			fmt.Sprintf("%.1fx", en.Speedup),
			en.Routers, en.DirtyRouters, en.Spliced, en.Recomputed,
			en.FastPath,
			fmt.Sprintf("%d/%d", en.CacheHits, en.CacheMisses),
			en.ByteIdentical)
	}
	return t, nil
}
