// Package simtest is a test-only helper for scripting sim.Engine events
// inline: Func is a MsgHandler that runs the function it was scheduled
// with, and Recorder logs the events a component schedules for it.
// Simulator code never imports it; its events are typed.
package simtest

import (
	"pccsim/internal/msg"
	"pccsim/internal/sim"
)

// Func is a sim.MsgHandler that calls itself; the opcode and message are
// ignored.
type Func func()

// HandleMsgEvent runs f.
func (f Func) HandleMsgEvent(uint8, *msg.Message) { f() }

// At schedules fn on eng at absolute cycle at.
func At(eng *sim.Engine, at sim.Time, fn func()) { eng.ScheduleMsg(at, Func(fn), 0, nil) }

// After schedules fn on eng d cycles from now.
func After(eng *sim.Engine, d sim.Time, fn func()) { eng.AfterMsg(d, Func(fn), 0, nil) }

// Recorder is a sim.MsgHandler that logs the opcode of every event it
// receives, in firing order.
type Recorder struct {
	Ops []uint8
}

// HandleMsgEvent logs the event.
func (r *Recorder) HandleMsgEvent(op uint8, _ *msg.Message) { r.Ops = append(r.Ops, op) }
