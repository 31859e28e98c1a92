package core

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/logic"
	"repro/internal/spec"
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
// router's concrete (deployed) configuration: each clause is built as
// a term over the candidate paths (via the same machinery lifting
// uses) and evaluated.
//
// This implements the workflow the paper's introduction motivates:
// "validating the concrete configuration lines against the
// subspecifications ... is a more feasible task than directly
// validating against the global specifications."
func (e *Explainer) CheckSubspec(router string, block *spec.Block) ([]ClauseCheck, error) {
	return e.CheckSubspecContext(context.Background(), router, block)
}

// CheckSubspecContext is CheckSubspec with cancellation. The clause
// terms are built over the session base, the encoding of the deployed
// configurations themselves, where every edge condition and
// local-preference rank is ground: each term evaluates with no
// assignment, and no encode runs beyond the base.
func (e *Explainer) CheckSubspecContext(ctx context.Context, router string, block *spec.Block) ([]ClauseCheck, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	if _, ok := e.Deployment[router]; !ok {
		return nil, fmt.Errorf("core: no deployed configuration for %q", router)
	}
	base, err := e.Session.PrepareScoped(ctx)
	if err != nil {
		return nil, err
	}
	infos := base.PathInfos()
	out := make([]ClauseCheck, 0, len(block.Reqs))
	for _, req := range block.Reqs {
		term, err := e.clauseTerm(infos, router, req)
		if err != nil {
			return nil, fmt.Errorf("core: clause %s: %w", req, err)
		}
		holds, err := logic.EvalBool(term, nil)
		if err != nil {
			return nil, fmt.Errorf("core: clause %s: %w", req, err)
		}
		out = append(out, ClauseCheck{Req: req, Holds: holds})
	}
	return out, nil
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
