// custom_workload shows how to build your own shared-memory program with
// the Program API: a 4-stage software pipeline where each stage writes a
// buffer the next stage reads — producer-consumer chains the detector
// discovers stage by stage. It also demonstrates per-run protocol
// introspection: delegations, undelegations, update accuracy.
//
//	go run ./examples/custom_workload
package main

import (
	"fmt"
	"log"

	"pccsim"
)

const (
	stages     = 4
	bufLines   = 16
	lineBytes  = 128
	iterations = 10
	bufBase    = pccsim.Addr(0x2000_0000)
	bufStride  = pccsim.Addr(0x10000) // distinct pages per buffer
)

// buffer i is written by stage i and read by stage i+1.
func bufLine(buf, i int) pccsim.Addr {
	return bufBase + pccsim.Addr(buf)*bufStride + pccsim.Addr(i)*lineBytes
}

func buildPipeline(nodes int) *pccsim.Program {
	p := pccsim.NewProgram(nodes)
	// First touch: every buffer is initialized by stage 0 (a serial
	// setup loop), so stages 1..3 produce into remote-homed pages —
	// which is what directory delegation later repairs.
	for b := 0; b < stages-1; b++ {
		for i := 0; i < bufLines; i++ {
			p.Store(0, bufLine(b, i))
		}
	}
	p.Barrier()

	for it := 0; it < iterations; it++ {
		for s := 0; s < stages; s++ {
			if s > 0 { // consume the upstream buffer
				for i := 0; i < bufLines; i++ {
					p.Load(s, bufLine(s-1, i))
					p.Compute(s, 30)
				}
			}
			if s < stages-1 { // produce the downstream buffer
				for i := 0; i < bufLines; i++ {
					p.Compute(s, 20)
					p.Store(s, bufLine(s, i))
				}
			}
		}
		p.Barrier()
	}
	return p
}

func main() {
	cfg := pccsim.DefaultConfig()
	cfg.Nodes = stages
	cfg.CheckInvariants = true

	for _, mech := range []struct {
		label string
		cfg   pccsim.Config
	}{
		{"baseline write-invalidate", cfg},
		{"with delegation + updates", cfg.With(pccsim.WithRAC(32), pccsim.WithDelegation(32), pccsim.WithSpeculativeUpdates(0))},
	} {
		m, err := pccsim.New(mech.cfg)
		if err != nil {
			log.Fatal(err)
		}
		st, err := m.Run(buildPipeline(mech.cfg.Nodes))
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("== %s ==\n", mech.label)
		fmt.Printf("  cycles            %d\n", st.ExecCycles)
		fmt.Printf("  remote misses     %d (3-hop %d, 2-hop %d, RAC-local %d)\n",
			st.RemoteMisses(), st.Remote3HopMisses(), st.Remote2HopMisses(), st.RACMisses())
		fmt.Printf("  messages          %d (%d NACKs)\n", st.TotalMessages(), st.Nacks())
		fmt.Printf("  PC lines marked   %d\n", st.PCLinesMarked)
		fmt.Printf("  delegations       %d (undelegations %d)\n", st.Delegations, st.TotalUndelegations())
		fmt.Printf("  updates           %d sent, accuracy %.0f%%\n\n",
			st.UpdatesSent, 100*st.UpdateAccuracy())
	}
}
