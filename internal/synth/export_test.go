package synth

import (
	"repro/internal/config"
	"repro/internal/logic"
	"repro/internal/topology"
)

// BaseDeployment returns the deployment the base was recorded over.
func BaseDeployment(b *Base) config.Deployment { return b.dep }

// VocabSorts returns the Community, NextHopIP, Prefix and Neighbor
// sorts of the encoder's vocabulary, and whether it was derived from a
// base rather than built from the sketch.
func VocabSorts(e *Encoder) (sorts []*logic.Sort, derived bool) {
	v := e.voc()
	return []*logic.Sort{v.commSort, v.ipSort, v.prefixSort, v.nbrSort}, e.base != nil
}

// BuildVocabSorts returns the same four sorts as built from the whole
// sketch (buildVocab), the reference every derivation must reproduce.
func BuildVocabSorts(net *topology.Network, sketch config.Deployment) []*logic.Sort {
	v := buildVocab(net, sketch)
	return []*logic.Sort{v.commSort, v.ipSort, v.prefixSort, v.nbrSort}
}
