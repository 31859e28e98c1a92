package core

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/engine"
	"repro/internal/logic"
	"repro/internal/sat"
	"repro/internal/smt"
	"repro/internal/spec"
	"repro/internal/synth"
)

// Lifting — the paper's step 4, which it outlines and leaves as future
// work — searches the specification language for a subspecification
// consistent with the simplified seed, step 3's normal form, which is
// what every seed solver here asserts. The implementation here:
//
//  1. Enumerates candidate clauses from the device's local route
//     vocabulary: blanket announcement blocks "!(R->nb)", per-route
//     blocks (propagation-path prefixes crossing the device), and
//     pairwise route preferences at the device.
//  2. Encodes each candidate as a term over the device's symbolic
//     variables, using the same PathInfo machinery as the encoder.
//  3. Keeps exactly the clauses that are NECESSARY (every completion
//     of the device satisfying the seed satisfies the clause — checked
//     by the SMT solver: seed AND NOT(clause) is unsatisfiable) and
//     NOT VACUOUS (some completion violates the clause).
//  4. Prunes redundant clauses (implied by the remaining ones) and
//     verifies sufficiency by enumerating the models of the lifted
//     subspecification and checking each extends to a seed model.
//
// Clause conventions (see EXPERIMENTS.md for the mapping to the
// paper's figures, whose ordering of local paths is not uniform):
// forbid clauses are written in route-propagation order — "!(R1->P1)"
// means R1 announces nothing to P1, as in Figure 2 — while preference
// clauses are written in traffic order from the device, as in
// Figure 4.
type liftCandidate struct {
	req  spec.Requirement
	term logic.Term
	// width orders candidates general-first for redundancy pruning.
	width int
}

// MaxSufficiencyModels is the default bound on the model enumeration
// of the sufficiency check, used when the explainer's Budget does not
// set MaxModels.
const MaxSufficiencyModels = engine.DefaultMaxModels

// lift runs the lifting pipeline for the router's explanation. Its
// outcome depends on the simplified seed, the hole variables, the
// encoding's path infos and the options alone, the inputs the splice
// gate compares; under VerifyProofs it also reads the raw seed, only to
// check the link to it. Its solvers live for this call only; explain
// answers a repeat query against the same inputs from the report cache
// instead.
func (e *Explainer) lift(ctx context.Context, router string, enc *synth.Encoding, ex *Explanation) (*spec.Block, bool, error) {
	block := &spec.Block{Name: router}
	if len(ex.HoleVars) == 0 {
		// Nothing symbolic: the device is unconstrained by
		// construction — the paper's empty subspecification.
		return block, true, nil
	}
	holeNames := map[string]bool{}
	for n := range ex.HoleVars {
		holeNames[n] = true
	}
	holeVars := sortedHoleVars(ex.HoleVars)

	cands, err := e.liftCandidates(router, enc, holeNames)
	if err != nil {
		return nil, false, err
	}

	// Seed solver for necessity and extendability checks.
	seedSolver, seedRelease, err := e.buildSeedSolver(ctx, enc, ex.Simplified)
	if err != nil {
		return nil, false, err
	}
	defer seedRelease()
	if st, err := seedSolver.SolveContext(ctx); err != nil || st != sat.Sat {
		if err != nil {
			return nil, false, err
		}
		return nil, false, fmt.Errorf("core: seed specification unsatisfiable or error (%v)", st)
	}

	// Domain solver (hole domains only) for vacuity checks and the
	// sufficiency enumeration.
	domSolver, domRelease, err := e.buildSolver(func(s *smt.Solver) error {
		for _, v := range holeVars {
			if err := s.Declare(v); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, false, err
	}
	defer domRelease()

	// Decide NOT VACUOUS and NECESSARY for every candidate, in
	// candidate order. The latencies of every query this lift runs are
	// recorded once it returns.
	var lats []time.Duration
	defer func() { e.addLiftQueries(lats) }()
	var accepted []liftCandidate
	for _, c := range cands {
		// Vacuous: no completion violates it.
		st, err := timedSolve(ctx, domSolver, &lats, logic.Not(c.term))
		if err != nil {
			return nil, false, err
		}
		if st != sat.Sat {
			if st == sat.Unsat {
				// The drop verdict rests on an Unsat: check it.
				if err := e.verifyUnsat(domSolver); err != nil {
					return nil, false, err
				}
			}
			continue // tautological over the hole space: says nothing
		}
		// Necessary: seed forces it.
		st, err = timedSolve(ctx, seedSolver, &lats, logic.Not(c.term))
		if err != nil {
			return nil, false, err
		}
		if st == sat.Unsat {
			if err := e.verifyUnsat(seedSolver); err != nil {
				return nil, false, err
			}
			accepted = append(accepted, c)
		}
	}

	// Redundancy pruning. A forbid whose pattern extends another
	// accepted forbid with more origin-side context (the shorter
	// pattern is a suffix of the longer) is implied by it — same final
	// edge, fewer matching routes — and is dropped. Distinct routes
	// are kept separately even when their encodings coincide, matching
	// the per-route granularity of the paper's Figure 5.
	sort.SliceStable(accepted, func(i, j int) bool {
		if accepted[i].width != accepted[j].width {
			return accepted[i].width < accepted[j].width
		}
		return accepted[i].req.String() < accepted[j].req.String()
	})
	var forbids []spec.Path
	for _, c := range accepted {
		if f, ok := c.req.(*spec.Forbid); ok {
			forbids = append(forbids, f.Path)
		}
	}
	var final []liftCandidate
	for _, c := range accepted {
		f, ok := c.req.(*spec.Forbid)
		if !ok {
			// A preference about routes that accepted forbids already
			// block explains nothing — drop it.
			if p, ok := c.req.(*spec.Preference); ok && preferenceBlocked(p, forbids) {
				continue
			}
			final = append(final, c)
			continue
		}
		redundant := false
		for _, kept := range final {
			kf, ok := kept.req.(*spec.Forbid)
			if ok && isPathSuffix(kf.Path, f.Path) {
				redundant = true
				break
			}
		}
		if !redundant {
			final = append(final, c)
		}
	}
	for _, c := range final {
		block.Reqs = append(block.Reqs, c.req)
	}
	block.Scope = commonScope(router, block)

	var complete bool
	if len(final) == 0 {
		// Empty subspecification: the device claims to be
		// unconstrained. Model-enumerating the full hole space is
		// infeasible, but no necessary clause over the candidate
		// vocabulary exists, so it suffices to check per-variable
		// extendability: every value of every variable participates
		// in some valid completion.
		complete, err = e.checkUnconstrained(ctx, holeVars, seedSolver, &lats)
	} else {
		complete, err = e.checkSufficiency(ctx, holeVars, final, seedSolver, domSolver, &lats)
	}
	if err != nil {
		return nil, false, err
	}
	return block, complete, nil
}

// checkUnconstrained verifies that each value of each symbolic
// variable extends to a model of the seed. It probes every value, also
// after one has failed.
func (e *Explainer) checkUnconstrained(ctx context.Context, holeVars []*logic.Var, seedSolver *smt.Solver, lats *[]time.Duration) (bool, error) {
	complete := true
	for _, v := range holeVars {
		for _, val := range domainValues(v) {
			st, err := timedSolve(ctx, seedSolver, lats, logic.Eq(v, val))
			if err != nil {
				return false, err
			}
			if st == sat.Unsat {
				// "This value never extends" is an Unsat claim: check it.
				if err := e.verifyUnsat(seedSolver); err != nil {
					return false, err
				}
			}
			if st != sat.Sat {
				complete = false
			}
		}
	}
	return complete, nil
}

// domainValues lists every value of the variable's finite domain, in
// domain order.
func domainValues(v *logic.Var) []logic.Term {
	switch {
	case v.S.IsBool():
		return []logic.Term{logic.True, logic.False}
	case v.S.IsInt():
		var out []logic.Term
		for x := v.Lo; x <= v.Hi; x++ {
			out = append(out, logic.NewInt(x))
		}
		return out
	}
	out := make([]logic.Term, len(v.S.Values))
	for i, val := range v.S.Values {
		out[i] = logic.NewEnum(v.S, val)
	}
	return out
}

// commonScope detects the Figure 5 situation — every clause of the
// block is a forbid ending at the same neighbor of the router — and
// returns that neighbor as the block's interface scope ("R2 to P2").
func commonScope(router string, block *spec.Block) string {
	if len(block.Reqs) == 0 {
		return ""
	}
	scope := ""
	for _, r := range block.Reqs {
		f, ok := r.(*spec.Forbid)
		if !ok || len(f.Path) < 2 {
			return ""
		}
		last := f.Path[len(f.Path)-1]
		prev := f.Path[len(f.Path)-2]
		if prev != router || last == spec.Wildcard {
			return ""
		}
		if scope == "" {
			scope = last
		} else if scope != last {
			return ""
		}
	}
	return scope
}

// checkSufficiency enumerates models of the lifted subspecification
// over the hole variables and verifies each extends to a model of the
// seed. Returns false (without error) when the enumeration exceeds its
// budget.
//
// This is the domain solver's last use: the subspecification clauses
// and the enumeration's blocking clauses are asserted plainly, and the
// solver is dropped when the lift returns.
func (e *Explainer) checkSufficiency(ctx context.Context, holeVars []*logic.Var, final []liftCandidate, seedSolver, domSolver *smt.Solver, lats *[]time.Duration) (bool, error) {
	for _, c := range final {
		if err := domSolver.Assert(c.term); err != nil {
			return false, err
		}
	}
	sufficient := true
	var checkErr error
	_, exhausted, err := domSolver.EnumerateModelsContext(ctx, holeVars, e.Opts.Budget.ModelCap(), func(m logic.Assignment) bool {
		// Does this device behavior extend to a full seed model?
		var assume []logic.Term
		for _, v := range holeVars {
			assume = append(assume, logic.Eq(v, m[v.Name].Term()))
		}
		st, err := timedSolve(ctx, seedSolver, lats, assume...)
		if err != nil {
			checkErr = err
			return false
		}
		if st != sat.Sat {
			if st == sat.Unsat {
				if err := e.verifyUnsat(seedSolver); err != nil {
					checkErr = err
					return false
				}
			}
			sufficient = false // subspec admits a behavior the seed rejects
			return false
		}
		return true
	})
	if err != nil {
		return false, err
	}
	if checkErr != nil {
		return false, checkErr
	}
	if !sufficient {
		return false, nil
	}
	// Exhausted means the enumeration's final solve came back Unsat —
	// no admitted behavior is left — so completeness itself rests on an
	// Unsat verdict; check its proof before reporting it.
	if exhausted {
		if err := e.verifyUnsat(domSolver); err != nil {
			return false, err
		}
	}
	// Otherwise the budget ran out and sufficiency is unknown.
	return exhausted, nil
}

// preferenceBlocked reports whether either side of the preference is a
// route an accepted forbid blocks. Subspec preferences are written in
// traffic order; forbids in route order, so the comparison reverses.
func preferenceBlocked(p *spec.Preference, forbids []spec.Path) bool {
	for _, traffic := range p.Paths {
		route := make([]string, len(traffic))
		for i, n := range traffic {
			route[len(traffic)-1-i] = n
		}
		for _, f := range forbids {
			if spec.MatchesSubpath(f, route) {
				return true
			}
		}
	}
	return false
}

// isPathSuffix reports whether short is a suffix of long (strictly
// shorter).
func isPathSuffix(short, long spec.Path) bool {
	if len(short) >= len(long) {
		return false
	}
	off := len(long) - len(short)
	for i := range short {
		if long[off+i] != short[i] {
			return false
		}
	}
	return true
}

// liftCandidates enumerates candidate subspecification clauses for the
// router.
func (e *Explainer) liftCandidates(router string, enc *synth.Encoding, holeNames map[string]bool) ([]liftCandidate, error) {
	infos := enc.PathInfos()
	simp := e.normalizer()
	var out []liftCandidate
	seen := map[string]bool{}

	add := func(req spec.Requirement, term logic.Term, width int) {
		key := req.String()
		if seen[key] {
			return
		}
		seen[key] = true
		t := simp.Simplify(term)
		// Candidates must speak about the device's variables:
		// constants or other-device terms explain nothing.
		if !mentionsAny(t, holeNames) {
			return
		}
		out = append(out, liftCandidate{req: req, term: t, width: width})
	}
	addForbid := func(pattern spec.Path) {
		term, occurs := e.forbidTerm(infos, pattern)
		if occurs {
			add(&spec.Forbid{Path: pattern}, term, len(pattern))
		}
	}

	// (a) Blanket announcement blocks: !(R->nb).
	for _, nb := range e.Net.Neighbors(router) {
		addForbid(spec.NewPath(router, nb))
	}

	// (b) Per-route blocks: every propagation-path prefix through a
	// hop adjacent to the router, written origin-side first.
	var patKeys []string
	seenPat := map[string]bool{}
	for _, info := range infos {
		for i := 0; i+1 < len(info.Path); i++ {
			if info.Path[i] != router && info.Path[i+1] != router {
				continue
			}
			if e.Opts.MaxPatternNodes > 0 && i+2 > e.Opts.MaxPatternNodes {
				continue
			}
			pat := strings.Join(info.Path[:i+2], "->")
			if !seenPat[pat] {
				seenPat[pat] = true
				patKeys = append(patKeys, pat)
			}
		}
	}
	sort.Strings(patKeys)
	for _, p := range patKeys {
		path, err := spec.ParsePath(p)
		if err != nil {
			return nil, err
		}
		addForbid(path)
	}

	// (c) Pairwise route preferences at the router, in traffic order.
	byPrefix := map[string][]synth.PathInfo{}
	for _, info := range infos {
		if info.Path[len(info.Path)-1] == router {
			byPrefix[info.Prefix] = append(byPrefix[info.Prefix], info)
		}
	}
	prefixes := make([]string, 0, len(byPrefix))
	for p := range byPrefix {
		prefixes = append(prefixes, p)
	}
	sort.Strings(prefixes)
	for _, prefix := range prefixes {
		list := byPrefix[prefix]
		for i := range list {
			for j := range list {
				if i == j {
					continue
				}
				a, b := list[i], list[j]
				// Only compare routes arriving via different
				// neighbors: same-neighbor pairs are internal detail.
				if len(a.Path) < 2 || len(b.Path) < 2 ||
					a.Path[len(a.Path)-2] == b.Path[len(b.Path)-2] {
					continue
				}
				req := &spec.Preference{Paths: []spec.Path{
					spec.NewPath(a.Traffic()...),
					spec.NewPath(b.Traffic()...),
				}}
				add(req, synth.PreferredTerm(a, b, e.Net), len(a.Path)+len(b.Path))
			}
		}
	}
	return out, nil
}
