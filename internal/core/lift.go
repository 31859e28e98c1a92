package core

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"strings"
	"time"

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
//     decides sufficiency exactly (checkSufficiency): every device
//     behavior the block admits, the empty block included, extends to
//     a seed model, or a witness behavior does not.
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

// lift runs the lifting pipeline for the router's explanation. Its
// outcome depends on the simplified seed, the hole variables, paths
// (the encoding's candidates through the router,
// Encoding.PathInfosThrough) and the options alone; under VerifyProofs
// it also reads the raw seed, only to check the link to it. Its
// solvers live for this call only.
func (e *Explainer) lift(ctx context.Context, router string, enc *synth.Encoding, ex *Explanation, paths []synth.PathInfo) (*spec.Block, bool, error) {
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
	holeVars := enc.HoleVarsByName()

	cands, err := e.liftCandidates(router, paths, holeNames)
	if err != nil {
		return nil, false, err
	}

	// Seed solver for the necessity and sufficiency checks. Its queries
	// assume the candidates' negations and values of the holes.
	terms := make([]logic.Term, len(cands))
	for i, c := range cands {
		terms[i] = c.term
	}
	seedSolver, seed, seedRelease, err := e.buildSeedSolver(ctx, enc, ex.Simplified, terms)
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
	// sufficiency check's abstraction.
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
	defer func() { e.Session.AddLiftQueries(lats) }()
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
			// A forbidden strict suffix already forbids f's path.
			if ok && len(kf.Path) < len(f.Path) && slices.Equal(f.Path[len(f.Path)-len(kf.Path):], kf.Path) {
				redundant = true
				break
			}
		}
		if !redundant {
			final = append(final, c)
		}
	}
	var sub []logic.Term
	for _, c := range final {
		block.Reqs = append(block.Reqs, c.req)
		sub = append(sub, c.term)
	}
	block.Scope = commonScope(router, block)

	witness, err := e.checkSufficiency(ctx, holeVars, sub, seed, seedSolver, domSolver, &lats)
	if err != nil {
		return nil, false, err
	}
	return block, witness == nil, nil
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

// checkSufficiency decides whether the lifted block is sufficient: the
// 2QBF ∀h. S(h) → ∃r. seed(h, r), with h the hole variables, r the
// seed's other (routing) variables, S the block's clause terms (true
// for an empty block) and seed the conjuncts the seed solver asserts.
// It returns nil when the block is sufficient, and otherwise a witness:
// a hole assignment the block admits that extends to no seed model.
//
// It is Janota and Marques-Silva's abstraction refinement (SAT 2011) on
// the lift's two solvers. The domain solver is the abstraction: it
// holds S and, from each round, ¬seed(h, rᵢ). Each of its models h is
// assumed on the seed solver, where Unsat makes h the witness and Sat
// yields routing values rᵢ; the round then asserts the negation of the
// seed's hole-mentioning conjuncts with rᵢ folded in, a formula over h
// alone that excludes every behavior rᵢ explains. An Unsat abstraction
// means every admitted behavior is explained. No later round can return
// an excluded rᵢ, so the loop runs at most once per distinct routing
// outcome and needs no budget; the context still bounds it. Both Unsat
// verdicts that decide the outcome are proof-checked, and Sat models
// are trusted.
//
// This is the domain solver's last use: the block and the refinements
// are asserted plainly, and the solver is dropped when the lift
// returns.
func (e *Explainer) checkSufficiency(ctx context.Context, holeVars []*logic.Var, block, seed []logic.Term, seedSolver, domSolver *smt.Solver, lats *[]time.Duration) (logic.Assignment, error) {
	if err := domSolver.AssertAll(block); err != nil {
		return nil, err
	}
	// The conjuncts that mention a hole, and the routing variables they
	// read, are found once: every other conjunct holds under each rᵢ,
	// whatever the holes are.
	holeNames := make(map[string]bool, len(holeVars))
	var holeSig uint64
	for _, v := range holeVars {
		holeNames[v.Name] = true
		holeSig |= logic.Signature(v)
	}
	var residual []logic.Term
	var routing []*logic.Var
	seen := map[logic.Term]bool{}
	for _, c := range seed {
		if logic.Signature(c)&holeSig == 0 || !mentionsAny(c, holeNames) {
			continue
		}
		residual = append(residual, c)
		logic.Walk(c, func(t logic.Term) bool {
			if seen[t] {
				return false
			}
			seen[t] = true
			if v, ok := t.(*logic.Var); ok && !holeNames[v.Name] {
				routing = append(routing, v)
			}
			return true
		})
	}
	for {
		st, err := timedSolve(ctx, domSolver, lats)
		if err != nil {
			return nil, err
		}
		if st == sat.Unsat {
			return nil, e.verifyUnsat(domSolver)
		}
		h := logic.Assignment{}
		assume := make([]logic.Term, len(holeVars))
		for i, v := range holeVars {
			val, err := domSolver.Value(v)
			if err != nil {
				return nil, err
			}
			h[v.Name] = val
			assume[i] = logic.Eq(v, val.Term())
		}
		if st, err = timedSolve(ctx, seedSolver, lats, assume...); err != nil {
			return nil, err
		}
		if st == sat.Unsat {
			// The block admits h, and h extends to no seed model.
			return h, e.verifyUnsat(seedSolver)
		}
		memo := make(map[logic.Term]logic.Term, len(seen))
		for _, v := range routing {
			val, err := seedSolver.Value(v)
			if err != nil {
				return nil, err
			}
			memo[v] = val.Term()
		}
		var explained []logic.Term
		for _, c := range residual {
			if f := logic.Fold(c, memo); !logic.IsTrue(f) {
				explained = append(explained, f)
			}
		}
		if err := domSolver.Assert(logic.Not(logic.And(explained...))); err != nil {
			return nil, err
		}
	}
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

// liftCandidates enumerates candidate subspecification clauses for the
// router from infos, the candidate paths through it. Every clause it
// builds names the router in a concrete pattern or compares routes
// ending there, so no occurrence lies on a path that avoids it: over
// the whole network's list it returns the same clauses and terms.
func (e *Explainer) liftCandidates(router string, infos []synth.PathInfo, holeNames map[string]bool) ([]liftCandidate, error) {
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
