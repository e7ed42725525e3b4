// producer_consumer builds the paper's canonical sharing pattern by hand
// with the Program API — one producer, two consumers, repeated rounds —
// and shows the protocol adapting: the first rounds pay 3-hop misses,
// the detector saturates, the home delegates the line to the producer,
// and speculative updates finally turn consumer misses into local hits.
//
//	go run ./examples/producer_consumer
package main

import (
	"fmt"
	"log"

	"pccsim"
)

const (
	producer  = 0
	consumerA = 1
	consumerB = 2
	homeNode  = 3
	line      = pccsim.Addr(0x10000)
)

// buildRounds constructs `rounds` producer-write / consumers-read rounds.
// The home node touches the page first, so the producer is remote from the
// home — the case directory delegation exists for.
func buildRounds(nodes, rounds int) *pccsim.Program {
	p := pccsim.NewProgram(nodes)
	p.Store(homeNode, line) // first touch: page homed at node 3
	p.Barrier()
	for r := 0; r < rounds; r++ {
		p.Store(producer, line)
		p.Store(producer, line+32) // a short write burst within the line
		p.Barrier()
		p.Load(consumerA, line)
		p.Load(consumerB, line)
		p.Compute(consumerA, 200)
		p.Compute(consumerB, 200)
		p.Barrier()
	}
	return p
}

func run(cfg pccsim.Config, rounds int) *pccsim.Stats {
	m, err := pccsim.New(cfg)
	if err != nil {
		log.Fatal(err)
	}
	st, err := m.Run(buildRounds(cfg.Nodes, rounds))
	if err != nil {
		log.Fatal(err)
	}
	return st
}

func main() {
	cfg := pccsim.DefaultConfig()
	cfg.Nodes = 4
	cfg.CheckInvariants = true // the runtime coherence checks of §2.5

	fmt.Println("one producer, two consumers, one remote home — 12 rounds")
	fmt.Println()
	fmt.Printf("%-34s %8s %8s %8s %8s %8s\n",
		"configuration", "cycles", "3-hop", "2-hop", "localRAC", "updates")

	show := func(label string, st *pccsim.Stats) {
		fmt.Printf("%-34s %8d %8d %8d %8d %8d\n", label, st.ExecCycles,
			st.Remote3HopMisses(), st.Remote2HopMisses(), st.RACMisses(), st.UpdatesSent)
	}

	// Plain write-invalidate: every consumer read after a write is a
	// 3-hop miss (home forwards an intervention to the producer).
	show("baseline", run(cfg, 12))

	// Delegation only: after 3 rounds the line is delegated and consumer
	// reads go directly to the producer (2 hops).
	show("delegation", run(cfg.With(pccsim.WithRAC(32), pccsim.WithDelegation(32)), 12))

	// Delegation + speculative updates: after each write burst the hub
	// downgrades the line and pushes it into the consumers' RACs; their
	// reads become local.
	show("delegation + updates", run(cfg.With(pccsim.WithRAC(32), pccsim.WithDelegation(32), pccsim.WithSpeculativeUpdates(0)), 12))

	fmt.Println()
	fmt.Println("miss classes: 3-hop = via home + owner; 2-hop = direct to (delegated) home;")
	fmt.Println("localRAC = satisfied by the node's own remote access cache (pushed updates).")
}
