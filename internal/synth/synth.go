package synth

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/bgp"
	"repro/internal/config"
	"repro/internal/logic"
	"repro/internal/sat"
	"repro/internal/smt"
	"repro/internal/spec"
	"repro/internal/topology"
)

// Result is the outcome of a synthesis run.
type Result struct {
	// Deployment is the concrete configuration for every sketched
	// router, with all holes filled from the model.
	Deployment config.Deployment
	// Model assigns every hole variable.
	Model logic.Assignment
	// Encoding is the constraint system that was solved.
	Encoding *Encoding
	// SolverStats reports SAT-level effort.
	SolverStats sat.Stats
}

// Synthesize completes a configuration sketch against the
// requirements: it encodes, solves, and decodes. It returns an error
// if the constraints are unsatisfiable (no completion of the sketch
// meets the requirements) or if the encoding fails.
func Synthesize(net *topology.Network, sketch config.Deployment, reqs []spec.Requirement, opts Options) (*Result, error) {
	return SynthesizeContext(context.Background(), net, sketch, reqs, opts)
}

// SynthesizeContext is Synthesize with cancellation: the context is
// threaded through encoding and the constraint solve, so a cancelled
// or expired context aborts a running synthesis promptly.
func SynthesizeContext(ctx context.Context, net *topology.Network, sketch config.Deployment, reqs []spec.Requirement, opts Options) (*Result, error) {
	enc, err := NewEncoder(net, sketch, opts).EncodeContext(ctx, reqs)
	if err != nil {
		return nil, err
	}
	solver := smt.NewSolver()
	for _, v := range enc.HoleVarsByName() {
		if err := solver.Declare(v); err != nil {
			return nil, err
		}
	}
	if err := solver.AssertAll(enc.Constraints); err != nil {
		return nil, err
	}
	st, err := solver.SolveContext(ctx)
	if err != nil {
		return nil, err
	}
	if st != sat.Sat {
		return nil, fmt.Errorf("synth: requirements are unsatisfiable for this sketch (solver: %v)", st)
	}
	model, err := solver.Model()
	if err != nil {
		return nil, err
	}
	dep, err := Decode(sketch, model)
	if err != nil {
		return nil, err
	}
	return &Result{
		Deployment:  dep,
		Model:       model,
		Encoding:    enc,
		SolverStats: solver.Stats(),
	}, nil
}

// Decode fills every hole of the sketch from a model, returning a
// fresh concrete deployment. Holes absent from the model (possible
// when decoding hand-built assignments) get safe defaults and are
// reported in the error only if strict decoding is required by the
// caller checking Concrete().
func Decode(sketch config.Deployment, model logic.Assignment) (config.Deployment, error) {
	out := config.Deployment{}
	for name, c := range sketch {
		dc, err := decodeConfig(c, model)
		if err != nil {
			return nil, fmt.Errorf("synth: decoding %s: %w", name, err)
		}
		out[name] = dc
	}
	return out, nil
}

func decodeConfig(c *config.Config, model logic.Assignment) (*config.Config, error) {
	out := c.Clone()
	autoList := 0
	for _, name := range out.RouteMapNames() {
		rm := out.RouteMaps[name]
		for _, cl := range rm.Clauses {
			if cl.ActionHole != "" {
				v, ok := model[cl.ActionHole]
				if !ok {
					return nil, fmt.Errorf("model misses action hole %q", cl.ActionHole)
				}
				if v.E == actionPermit {
					cl.Action = config.Permit
				} else {
					cl.Action = config.Deny
				}
				cl.ActionHole = ""
			}
			for _, m := range cl.Matches {
				if m.ValueHole == "" {
					continue
				}
				v, ok := model[m.ValueHole]
				if !ok {
					return nil, fmt.Errorf("model misses match hole %q", m.ValueHole)
				}
				switch m.Kind {
				case config.MatchPrefixList:
					// Materialize a one-entry prefix list for the
					// chosen prefix.
					autoList++
					listName := fmt.Sprintf("auto_%s_%d", out.Router, autoList)
					out.AddPrefixList(&config.PrefixList{
						Name: listName,
						Entries: []config.PrefixEntry{
							{Seq: 10, Action: config.Permit, Prefix: topology.MustPrefix(v.E)},
						},
					})
					m.PrefixList = listName
				case config.MatchCommunity:
					comm, err := bgp.ParseCommunity(strings.TrimPrefix(v.E, "c"))
					if err != nil {
						return nil, err
					}
					m.Community = comm
				case config.MatchNextHopIs:
					m.NextHop = v.E
				}
				m.ValueHole = ""
			}
			for _, s := range cl.Sets {
				if s.ParamHole == "" {
					continue
				}
				v, ok := model[s.ParamHole]
				if !ok {
					return nil, fmt.Errorf("model misses set hole %q", s.ParamHole)
				}
				switch s.Kind {
				case config.SetLocalPref:
					s.LocalPref = DecodeLP(v.I)
				case config.SetMED:
					s.MED = int(v.I)
				case config.SetCommunity:
					comm, err := bgp.ParseCommunity(strings.TrimPrefix(v.E, "c"))
					if err != nil {
						return nil, err
					}
					s.Community = comm
				case config.SetNextHopIP:
					s.NextHopIP = v.E
				}
				s.ParamHole = ""
			}
		}
	}
	if !out.Concrete() {
		return nil, fmt.Errorf("config still has holes after decoding")
	}
	return out, nil
}
