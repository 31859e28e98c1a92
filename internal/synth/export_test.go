package synth

import (
	"repro/internal/config"
	"repro/internal/logic"
	"repro/internal/topology"
)

// BaseDeployment returns the deployment the base was recorded over.
func BaseDeployment(b *Base) config.Deployment { return b.dep }

// DerivedVocabSorts returns the Community, NextHopIP, Prefix and
// Neighbor sorts of the vocabulary the base derives for an encode with
// the overrides (Base.deriveVocab).
func DerivedVocabSorts(b *Base, over map[string]*config.Config) []*logic.Sort {
	v := b.encoder(over).voc()
	return []*logic.Sort{v.commSort, v.ipSort, v.prefixSort, v.nbrSort}
}

// BuildVocabSorts returns the same four sorts as built from the whole
// sketch (buildVocab), the reference every derivation must reproduce.
func BuildVocabSorts(net *topology.Network, sketch config.Deployment) []*logic.Sort {
	v := buildVocab(net, sketch)
	return []*logic.Sort{v.commSort, v.ipSort, v.prefixSort, v.nbrSort}
}

// BaseConstraints returns the base encoding's constraint list.
func BaseConstraints(b *Base) []logic.Term { return b.enc.Constraints }

// CandidateSnapshot copies the base's candidate graph: by prefix and
// node, the candidate pointers in order.
func CandidateSnapshot(b *Base) map[[2]string][]any {
	out := map[[2]string][]any{}
	for prefix, byNode := range b.cands {
		for node, cs := range byNode {
			g := make([]any, len(cs))
			for i, c := range cs {
				g[i] = c
			}
			out[[2]string{prefix, node}] = g
		}
	}
	return out
}
