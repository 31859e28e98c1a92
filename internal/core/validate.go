package core

import (
	"context"
	"fmt"
	"strings"
	"time"

	"repro/internal/config"
	"repro/internal/logic"
	"repro/internal/sat"
	"repro/internal/spec"
	"repro/internal/synth"
)

// ClauseCheck is the validation verdict for one subspecification
// clause against a concrete configuration.
type ClauseCheck struct {
	Req spec.Requirement
	// Holds reports whether the device's concrete configuration
	// satisfies the clause.
	Holds bool
}

// CheckSubspec validates a subspecification block against the
// router's concrete (deployed) configuration: each clause is encoded
// as a term over the router's configuration fields (via the same
// machinery lifting uses) and evaluated under the values the deployed
// configuration actually has.
//
// This implements the workflow the paper's introduction motivates:
// "validating the concrete configuration lines against the
// subspecifications ... is a more feasible task than directly
// validating against the global specifications."
func (e *Explainer) CheckSubspec(router string, block *spec.Block) ([]ClauseCheck, error) {
	return e.CheckSubspecContext(context.Background(), router, block)
}

// CheckSubspecContext is CheckSubspec with cancellation and the
// budget's deadline applied. The sketch it encodes matches the one
// ExplainAll builds, so a prior explanation of the router answers the
// encoding from the session cache.
func (e *Explainer) CheckSubspecContext(ctx context.Context, router string, block *spec.Block) ([]ClauseCheck, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	ctx, cancel := e.Opts.Budget.Apply(ctx)
	defer cancel()
	c, ok := e.Deployment[router]
	if !ok {
		return nil, fmt.Errorf("core: no deployed configuration for %q", router)
	}
	targets := AllTargets(c)
	enc, _, err := e.encodeSeed(ctx, router, targets)
	if err != nil {
		return nil, err
	}
	assign, err := concreteAssignment(enc, c, targets)
	if err != nil {
		return nil, err
	}

	infos := enc.PathInfos()
	out := make([]ClauseCheck, 0, len(block.Reqs))
	for _, req := range block.Reqs {
		term, err := e.clauseTerm(infos, router, req)
		if err != nil {
			return nil, fmt.Errorf("core: clause %s: %w", req, err)
		}
		holds, err := logic.EvalBool(term, assign)
		if err != nil {
			return nil, fmt.Errorf("core: clause %s: %w", req, err)
		}
		out = append(out, ClauseCheck{Req: req, Holds: holds})
	}
	return out, nil
}

// NecessityCheck is the verdict of checking one subspecification
// clause against the router's SEED specification rather than its
// concrete configuration: Necessary means every completion of the
// device that satisfies the seed satisfies the clause — the necessity
// half of the lifting criterion, applied to a given block (for
// example a hand-edited or externally proposed subspecification).
type NecessityCheck struct {
	Req       spec.Requirement
	Necessary bool
}

// CheckSubspecNecessary reports, clause by clause, whether the block
// is entailed by the router's seed specification.
func (e *Explainer) CheckSubspecNecessary(router string, block *spec.Block) ([]NecessityCheck, error) {
	return e.CheckSubspecNecessaryContext(context.Background(), router, block)
}

// CheckSubspecNecessaryContext is CheckSubspecNecessary with
// cancellation and the budget's deadline applied. It encodes and
// simplifies the same sketch as ExplainAll, so after an explanation of
// the router both come from the session caches, and builds a
// query-scoped seed solver over the simplified seed on which each
// clause costs one assumption-driven solve.
func (e *Explainer) CheckSubspecNecessaryContext(ctx context.Context, router string, block *spec.Block) ([]NecessityCheck, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	ctx, cancel := e.Opts.Budget.Apply(ctx)
	defer cancel()
	c, ok := e.Deployment[router]
	if !ok {
		return nil, fmt.Errorf("core: no deployed configuration for %q", router)
	}
	enc, _, err := e.encodeSeed(ctx, router, AllTargets(c))
	if err != nil {
		return nil, err
	}
	simplified := e.simplify(enc.Conjunction()).Simplified
	seedSolver, release, err := e.buildSeedSolver(ctx, enc, simplified)
	if err != nil {
		return nil, err
	}
	defer release()
	var lats []time.Duration
	defer func() { e.addLiftQueries(lats) }()
	infos := enc.PathInfos()
	out := make([]NecessityCheck, 0, len(block.Reqs))
	for _, req := range block.Reqs {
		term, err := e.clauseTerm(infos, router, req)
		if err != nil {
			return nil, fmt.Errorf("core: clause %s: %w", req, err)
		}
		st, err := timedSolve(ctx, seedSolver, &lats, logic.Not(term))
		if err != nil {
			return nil, err
		}
		if st == sat.Unsat {
			if err := e.verifyUnsat(seedSolver); err != nil {
				return nil, err
			}
		}
		out = append(out, NecessityCheck{Req: req, Necessary: st == sat.Unsat})
	}
	return out, nil
}

// SatisfiesSubspec reports whether every clause holds.
func (e *Explainer) SatisfiesSubspec(router string, block *spec.Block) (bool, error) {
	return e.SatisfiesSubspecContext(context.Background(), router, block)
}

// SatisfiesSubspecContext is SatisfiesSubspec with cancellation.
func (e *Explainer) SatisfiesSubspecContext(ctx context.Context, router string, block *spec.Block) (bool, error) {
	checks, err := e.CheckSubspecContext(ctx, router, block)
	if err != nil {
		return false, err
	}
	for _, ch := range checks {
		if !ch.Holds {
			return false, nil
		}
	}
	return true, nil
}

// concreteAssignment maps each symbolized field's hole variable to the
// value the concrete configuration has, using the sorts the encoder
// assigned.
func concreteAssignment(enc *synth.Encoding, c *config.Config, targets []Target) (logic.Assignment, error) {
	assign := logic.Assignment{}
	for _, t := range targets {
		name := t.HoleName()
		v, ok := enc.HoleVars[name]
		if !ok {
			// The field sits on a route map no candidate path crosses;
			// it cannot influence any clause term.
			continue
		}
		val, err := concreteValue(v, c, t)
		if err != nil {
			return nil, err
		}
		assign[name] = val
	}
	return assign, nil
}

func concreteValue(v *logic.Var, c *config.Config, t Target) (logic.Value, error) {
	rm := c.RouteMaps[t.Map]
	if rm == nil {
		return logic.Value{}, fmt.Errorf("core: no route-map %q", t.Map)
	}
	var cl *config.Clause
	for _, cand := range rm.Clauses {
		if cand.Seq == t.Seq {
			cl = cand
		}
	}
	if cl == nil {
		return logic.Value{}, fmt.Errorf("core: no clause %d in %q", t.Seq, t.Map)
	}
	switch t.Field {
	case FieldAction:
		return logic.EnumValue(v.S, cl.Action.String()), nil
	case FieldMatch:
		m := cl.Matches[t.Index]
		switch m.Kind {
		case config.MatchPrefixList:
			pl := c.PrefixLists[m.PrefixList]
			if pl == nil || len(pl.Entries) != 1 || pl.Entries[0].Action != config.Permit {
				return logic.Value{}, fmt.Errorf("core: prefix-list %q is not a single-permit list; cannot map to the encoding", m.PrefixList)
			}
			return logic.EnumValue(v.S, pl.Entries[0].Prefix.String()), nil
		case config.MatchCommunity:
			return logic.EnumValue(v.S, "c"+m.Community.String()), nil
		case config.MatchNextHopIs:
			return logic.EnumValue(v.S, m.NextHop), nil
		}
	case FieldSet:
		s := cl.Sets[t.Index]
		switch s.Kind {
		case config.SetLocalPref:
			rank, err := synth.EncodeLP(s.LocalPref)
			if err != nil {
				return logic.Value{}, err
			}
			return logic.IntValue(rank), nil
		case config.SetCommunity:
			return logic.EnumValue(v.S, "c"+s.Community.String()), nil
		case config.SetMED:
			if s.MED < 0 || int64(s.MED) > synth.LPRankHi {
				return logic.Value{}, fmt.Errorf("core: MED %d outside the encoded domain", s.MED)
			}
			return logic.IntValue(int64(s.MED)), nil
		case config.SetNextHopIP:
			if _, ok := v.S.ValueIndex(s.NextHopIP); !ok {
				return logic.Value{}, fmt.Errorf("core: next-hop %q outside the encoded vocabulary", s.NextHopIP)
			}
			return logic.EnumValue(v.S, s.NextHopIP), nil
		}
	}
	return logic.Value{}, fmt.Errorf("core: unsupported field %v", t.Field)
}

// FormatChecks renders clause checks for CLI output.
func FormatChecks(checks []ClauseCheck) string {
	var sb strings.Builder
	for _, ch := range checks {
		mark := "ok  "
		if !ch.Holds {
			mark = "FAIL"
		}
		fmt.Fprintf(&sb, "%s %s\n", mark, ch.Req)
	}
	return sb.String()
}
