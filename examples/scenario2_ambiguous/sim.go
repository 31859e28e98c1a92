package main

import (
	"repro/internal/bgp"
	"repro/internal/synth"
	"repro/internal/topology"
)

// simulate runs the synthesized deployment on a (possibly degraded)
// network.
func simulate(net *topology.Network, res *synth.Result) (*bgp.Result, error) {
	return bgp.Simulate(net, res.Deployment)
}
