// Quickstart: the full pipeline of the paper on Scenario 1 — from the
// global no-transit intent and the Figure 1b topology, through
// constraint-based synthesis, to the localized explanation at router
// R1 (Figures 1, 2, and 6).
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"repro/internal/bgp"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/scenarios"
	"repro/internal/spec"
	"repro/internal/synth"
	"repro/internal/topology"
	"repro/internal/verify"
)

func section(title string) {
	fmt.Printf("\n=== %s ===\n\n", title)
}

func main() {
	sc := scenarios.Scenario1()

	section("Global specification (Figure 1a)")
	fmt.Print(spec.Print(sc.Spec))

	section("Topology (Figure 1b)")
	fmt.Print(topology.Print(sc.Net))

	section("Configuration sketch at R1 (holes marked ?)")
	fmt.Print(config.Print(sc.Sketch["R1"]))

	// Synthesis: complete the sketch so the global intent holds.
	res, err := synth.Synthesize(sc.Net, sc.Sketch, sc.Requirements(), synth.DefaultOptions())
	if err != nil {
		log.Fatalf("synthesis failed: %v", err)
	}
	section("Synthesized configuration at R1 (Figure 1c)")
	fmt.Print(config.Print(res.Deployment["R1"]))
	fmt.Printf("encoding: %d constraints, %d constraint atoms, %d hole variables\n",
		res.Encoding.Stats.Constraints, res.Encoding.Stats.ConstraintSize, res.Encoding.Stats.HoleVars)

	// Ground truth: the simulation confirms the intent holds.
	vs, err := verify.Check(sc.Net, res.Deployment, sc.Requirements())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("verification: %d violations\n", len(vs))

	// Explanation (Figure 6): symbolize R1, extract the seed
	// specification, simplify, lift.
	explainer, err := core.NewExplainer(sc.Net, sc.Requirements(), res.Deployment, core.DefaultOptions())
	if err != nil {
		log.Fatal(err)
	}
	ex, err := explainer.ExplainAll("R1")
	if err != nil {
		log.Fatal(err)
	}

	section("Seed specification (Figure 6b -> constraints)")
	fmt.Printf("seed: %d constraints, %d atoms over %d symbolic variables\n",
		ex.SeedConstraints, ex.SeedSize, len(ex.HoleVars))

	section("Simplified constraints (Figure 6c)")
	fmt.Printf("after %d passes of the 15 rewrite rules: %d atoms (reduction %.0fx)\n",
		ex.Passes, ex.SimplifiedSize, ex.Reduction())
	fmt.Printf("size: %d -> %d\n\n%s\n", ex.SeedSize, ex.SimplifiedSize, ex.ResidualText())

	section("Subspecification at R1 (Figure 2)")
	fmt.Print(spec.PrintBlock(ex.Subspec))
	if ex.SubspecComplete {
		fmt.Println("\n(verified: necessary and sufficient for the global intent)")
	}

	section("The underspecification the explanation reveals")
	// The subspec shows R1's whole job is dropping routes toward P1 —
	// nothing requires customer connectivity, so the synthesized
	// configuration also cut P1 off from the customer network.
	sim, err := bgp.Simulate(sc.Net, res.Deployment)
	if err != nil {
		log.Fatal(err)
	}
	cPfx := sc.Net.Router("C").Prefix
	if path := sim.ForwardingPath("P1", cPfx); path == nil {
		fmt.Println("P1 can no longer reach the customer prefix 123.0.1.0/20 -")
		fmt.Println("satisfying the letter of the intent while breaking connectivity.")
		fmt.Println("Scenario 3 adds the reachability requirement that fixes this.")
	} else {
		fmt.Printf("P1 reaches the customer via %v\n", path)
	}
}
