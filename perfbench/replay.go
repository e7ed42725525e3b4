package main

import (
	"time"

	"pccsim/internal/cache"
	"pccsim/internal/core"
	"pccsim/internal/cpu"
	"pccsim/internal/directory"
	"pccsim/internal/mcheck"
	"pccsim/internal/msg"
	"pccsim/internal/network"
	"pccsim/internal/node"
	"pccsim/internal/obs"
	"pccsim/internal/sim"
	"pccsim/internal/stats"
	"pccsim/internal/workload"
)

// The isolated replays time one layer alone, driven by streams recorded
// from a real run instead of synthetic input.

// sentMsg is one packet the interconnect carried, as a KindSend event
// reports it: enough to re-inject it into a fresh network.
type sentMsg struct {
	at       sim.Time
	typ      msg.Type
	src, dst msg.NodeID
	addr     msg.Addr
}

// recording is the input of the directory and network replays.
type recording struct {
	misses []msg.Addr // KindMissStart addresses, in emission order
	sends  []sentMsg  // KindSend packets, in time order
}

// record runs the program once more with an obs tap collecting the
// replays' inputs.
func record(cfg core.Config, app string, p workload.Params, tr *tracer, parent spanID) (*recording, opResult) {
	rec := &recording{}
	sink := obs.NewSink(0)
	sink.Tap = func(e obs.Event) {
		switch e.Kind {
		case obs.KindMissStart:
			rec.misses = append(rec.misses, e.Addr)
		case obs.KindSend:
			rec.sends = append(rec.sends, sentMsg{e.At, e.Msg.Type, e.Msg.Src, e.Msg.Dst, e.Msg.Addr})
		}
	}
	r := runMachine(cfg, app, p, tr, parent, node.WithSink(sink))
	return rec, r
}

// replayCache feeds each node's load/store address stream through a
// private cache with the L2's geometry; a miss inserts the line. It
// returns the time per access and the hit ratio.
func replayCache(cfg core.Config, ops [][]cpu.Op) (nsPerAccess, hitRatio float64) {
	var elapsed time.Duration
	var accesses, hits int
	for _, stream := range ops {
		c := cache.New(cfg.L2Bytes, cfg.L2Ways, cfg.L2LineBytes)
		start := time.Now()
		for _, op := range stream {
			if op.Kind != cpu.Load && op.Kind != cpu.Store {
				continue
			}
			accesses++
			if c.Touch(op.Addr) != nil {
				hits++
				continue
			}
			st := cache.Shared
			if op.Kind == cpu.Store {
				st = cache.Excl
			}
			c.Insert(op.Addr, st)
		}
		elapsed += time.Since(start)
	}
	if accesses == 0 {
		return 0, 0
	}
	return float64(elapsed.Nanoseconds()) / float64(accesses), float64(hits) / float64(accesses)
}

// replayDirectory looks every recorded miss address up in a fresh
// directory, creating entries on first reference as the home does.
func replayDirectory(misses []msg.Addr) float64 {
	if len(misses) == 0 {
		return 0
	}
	d := directory.New()
	start := time.Now()
	for _, a := range misses {
		d.Entry(a)
	}
	return float64(time.Since(start).Nanoseconds()) / float64(len(misses))
}

// injector re-sends recorded packets at their recorded times: each
// injection event sends one packet and schedules the next.
type injector struct {
	eng   *sim.Engine
	net   *network.Network
	sends []sentMsg
	next  int
}

func (j *injector) HandleMsgEvent(_ uint8, m *msg.Message) {
	j.net.Send(m)
	j.schedule()
}

func (j *injector) schedule() {
	if j.next == len(j.sends) {
		return
	}
	s := j.sends[j.next]
	j.next++
	m := j.eng.NewMsg()
	*m = msg.Message{Type: s.typ, Src: s.src, Dst: s.dst, Addr: s.addr}
	at := s.at
	if now := j.eng.Now(); at < now {
		at = now
	}
	j.eng.ScheduleMsg(at, j, 0, m)
}

// replayNetwork pushes the recorded packets through a fresh interconnect
// on a private engine whose handlers only recycle the delivered message,
// and returns the time per packet.
func replayNetwork(cfg core.Config, sends []sentMsg) float64 {
	if len(sends) == 0 {
		return 0
	}
	eng := sim.NewEngine()
	ncfg := cfg.Network
	ncfg.Nodes = cfg.Nodes
	net := network.New(eng, ncfg, stats.New())
	for i := 0; i < cfg.Nodes; i++ {
		net.Register(msg.NodeID(i), eng.FreeMsg)
	}
	j := &injector{eng: eng, net: net, sends: sends}
	start := time.Now()
	j.schedule()
	eng.Run()
	return float64(time.Since(start).Nanoseconds()) / float64(len(sends))
}

// stateSample is the first n states of a breadth-first walk of the
// model's state graph from its initial state.
func stateSample(cfg mcheck.Config, n int) []*mcheck.State {
	init := mcheck.NewState(cfg)
	seen := map[string]bool{init.Key(): true}
	queue := []*mcheck.State{init}
	for i := 0; i < len(queue) && len(queue) < n; i++ {
		for _, s := range mcheck.Successors(cfg, queue[i]) {
			if k := s.State.Key(); !seen[k] {
				seen[k] = true
				queue = append(queue, s.State)
			}
		}
	}
	if len(queue) > n {
		queue = queue[:n]
	}
	return queue
}

// replayMCheck times mcheck.Successors and State.CanonicalKey over the
// sample, in nanoseconds per call.
func replayMCheck(cfg mcheck.Config, states []*mcheck.State) (successorsNs, canonNs float64) {
	if len(states) == 0 {
		return 0, 0
	}
	start := time.Now()
	for _, s := range states {
		mcheck.Successors(cfg, s)
	}
	successorsNs = float64(time.Since(start).Nanoseconds()) / float64(len(states))
	start = time.Now()
	for _, s := range states {
		s.CanonicalKey()
	}
	canonNs = float64(time.Since(start).Nanoseconds()) / float64(len(states))
	return successorsNs, canonNs
}
