package pccsim_test

import (
	"bytes"
	"errors"
	"fmt"
	"log"

	"pccsim"
)

// pcProgram builds the canonical producer-consumer round: node 0 writes a
// line that nodes 1 and 2 read, repeatedly, with the home at node 3.
func pcProgram(nodes, rounds int) *pccsim.Program {
	prog := pccsim.NewProgram(nodes)
	const line = pccsim.Addr(0x4000)
	prog.Load(3, line) // first touch places the home at node 3
	prog.Barrier()
	for r := 0; r < rounds; r++ {
		prog.Store(0, line)
		prog.Barrier()
		prog.Load(1, line)
		prog.Load(2, line)
		prog.Barrier()
	}
	return prog
}

func ExampleRunWorkload() {
	cfg := pccsim.DefaultConfig().With(
		pccsim.WithRAC(32),
		pccsim.WithDelegation(32),
		pccsim.WithSpeculativeUpdates(0))
	cfg.Nodes = 8

	st, err := pccsim.RunWorkload(cfg, "em3d", pccsim.WorkloadParams{Iters: 2})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("finished:", st.ExecCycles > 0)
	fmt.Println("coherence traffic:", st.TotalMessages() > 0)
	// Output:
	// finished: true
	// coherence traffic: true
}

func ExampleNew() {
	cfg := pccsim.DefaultConfig()
	cfg.Nodes = 4

	// The options are the paper's three mechanisms; an inconsistent
	// combination (delegation without a RAC) fails with ErrBadConfig.
	m, err := pccsim.New(cfg,
		pccsim.WithRAC(32),
		pccsim.WithDelegation(32),
		pccsim.WithSpeculativeUpdates(100))
	if err != nil {
		log.Fatal(err)
	}
	st, err := m.Run(pcProgram(4, 6))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("producer-consumer lines detected:", st.PCLinesMarked)
	fmt.Println("delegations:", st.Delegations)
	// Output:
	// producer-consumer lines detected: 1
	// delegations: 1
}

func ExampleWithProtocol() {
	// The directory's sharing policy is selectable: the same program runs
	// under the paper's adaptive protocol (the default) or any other
	// protocol. "hybrid" pushes updates to stable sharer sets
	// instead of invalidating them.
	fmt.Println("protocols:", pccsim.Protocols())

	cfg := pccsim.DefaultConfig().With(pccsim.WithProtocol("hybrid"))
	cfg.Nodes = 4
	m, err := pccsim.New(cfg)
	if err != nil {
		log.Fatal(err)
	}
	st, err := m.Run(pcProgram(4, 12))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("updates pushed:", st.UpdatesSent > 0)

	_, err = pccsim.New(pccsim.DefaultConfig(), pccsim.WithProtocol("mosi"))
	fmt.Println("unknown protocol:", errors.Is(err, pccsim.ErrUnknownProtocol))
	// Output:
	// protocols: [adaptive dsi hybrid mesi]
	// updates pushed: true
	// unknown protocol: true
}

func ExampleNewProgram() {
	cfg := pccsim.DefaultConfig()
	cfg.Nodes = 2

	prog := pccsim.NewProgram(2)
	prog.Store(0, 0x1000) // node 0 produces
	prog.Barrier()
	prog.Load(1, 0x1000) // node 1 consumes
	fmt.Println("ops:", prog.Len(), "nodes:", prog.Nodes())

	m, err := pccsim.New(cfg)
	if err != nil {
		log.Fatal(err)
	}
	st, err := m.Run(prog)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("loads:", st.Loads, "stores:", st.Stores)
	// Output:
	// ops: 4 nodes: 2
	// loads: 1 stores: 1
}

func ExampleMachine_Observe() {
	cfg := pccsim.DefaultConfig().With(
		pccsim.WithRAC(32),
		pccsim.WithDelegation(32),
		pccsim.WithSpeculativeUpdates(0))
	cfg.Nodes = 4

	m, err := pccsim.New(cfg)
	if err != nil {
		log.Fatal(err)
	}
	es := m.Observe(-1) // retain every event
	st, err := m.Run(pcProgram(4, 6))
	if err != nil {
		log.Fatal(err)
	}

	// The observer's traffic accounting matches the run's Stats exactly:
	// both count every packet at network injection.
	met := es.Metrics()
	fmt.Println("bytes match stats:", met.TotalBytes() == st.TotalBytes())
	fmt.Println("complete delegations:", met.CompleteDelegations())

	var buf bytes.Buffer
	if err := es.WritePerfetto(&buf); err != nil {
		log.Fatal(err)
	}
	fmt.Println("perfetto trace written:", buf.Len() > 0)
	// Output:
	// bytes match stats: true
	// complete delegations: 0
	// perfetto trace written: true
}
