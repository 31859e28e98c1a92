package core

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/config"
	"repro/internal/logic"
	"repro/internal/sat"
	"repro/internal/synth"
)

// ComplementExplanation answers the question the paper's Section 5
// raises under "High-level summary of the global behaviors": holding
// one router's configuration fixed, what must the REST of the network
// do for the global intent to hold? It is produced by symbolizing
// every configured router except the one under focus and running the
// same seed-and-simplify pipeline.
type ComplementExplanation struct {
	// Router is the device held concrete.
	Router string
	// Assumptions lists, per other router, the residual constraints on
	// that router's variables — the "assume" side of an assume/
	// guarantee pair whose "guarantee" side is Explain(Router).
	Assumptions map[string][]logic.Term
	// Satisfiable reports the assume side is consistent: some
	// completion of the rest of the network satisfies the seed. The
	// synthesized deployment itself is one, so false indicates an
	// encoding-level inconsistency worth surfacing.
	Satisfiable bool

	SeedSize       int
	SimplifiedSize int
	Passes         int
}

// ExplainComplement symbolizes every configured router except the
// given one and reports the per-router residual constraints.
func (e *Explainer) ExplainComplement(router string) (*ComplementExplanation, error) {
	return e.ExplainComplementContext(context.Background(), router)
}

// ExplainComplementContext is ExplainComplement with cancellation.
func (e *Explainer) ExplainComplementContext(ctx context.Context, router string) (*ComplementExplanation, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	if e.Net.Router(router) == nil {
		return nil, fmt.Errorf("core: unknown router %q", router)
	}
	enc, holeOwner, err := e.encodeComplement(ctx, router)
	if err != nil {
		return nil, err
	}
	seed := enc.Conjunction()
	sout := e.Session.Simplify(seed)
	simplified := sout.Simplified

	out := &ComplementExplanation{
		Router:         router,
		Assumptions:    map[string][]logic.Term{},
		SeedSize:       logic.Size(seed),
		SimplifiedSize: logic.Size(simplified),
		Passes:         sout.Passes,
	}
	for _, c := range logic.Conjuncts(simplified) {
		owners := map[string]bool{}
		for _, name := range logic.FreeVarNames(c) {
			if owner, ok := holeOwner[name]; ok {
				owners[owner] = true
			}
		}
		for owner := range owners {
			out.Assumptions[owner] = append(out.Assumptions[owner], c)
		}
	}

	// Consistency of the assume side.
	seedSolver, _, release, err := e.buildSeedSolver(ctx, enc, simplified, nil)
	if err != nil {
		return nil, err
	}
	defer release()
	st, err := seedSolver.SolveContext(ctx)
	if err != nil {
		return nil, err
	}
	if st == sat.Unsat {
		// An inconsistent assume side is itself an Unsat verdict worth
		// trusting only with a checked proof.
		if err := e.verifyUnsat(seedSolver); err != nil {
			return nil, err
		}
	}
	out.Satisfiable = st == sat.Sat
	return out, nil
}

// encodeComplement is the complement's steps 1 and 2: it symbolizes
// every configured router except the given one and encodes the
// deployment with those overrides through the session cache. holeOwner
// maps each hole to its router.
func (e *Explainer) encodeComplement(ctx context.Context, router string) (enc *synth.Encoding, holeOwner map[string]string, err error) {
	overrides := map[string]*config.Config{}
	holeOwner = map[string]string{}
	for name, c := range e.Deployment {
		if name == router {
			continue
		}
		targets := AllTargets(c)
		if len(targets) == 0 {
			continue
		}
		sym, _, err := Symbolize(c, targets)
		if err != nil {
			return nil, nil, err
		}
		overrides[name] = sym
		for _, t := range targets {
			holeOwner[t.HoleName()] = name
		}
	}
	enc, err = e.Session.Encode(ctx, overrides, "complement|"+router)
	if err != nil {
		return nil, nil, err
	}
	return enc, holeOwner, nil
}

// Routers lists the routers with at least one assumption, sorted.
func (c *ComplementExplanation) Routers() []string {
	out := make([]string, 0, len(c.Assumptions))
	for r := range c.Assumptions {
		out = append(out, r)
	}
	sort.Strings(out)
	return out
}
