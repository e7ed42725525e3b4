package sim

import "pccsim/internal/msg"

// call is the engine tests' MsgHandler: an event that runs the function
// it was scheduled with, so a test scripts an event chain inline. The
// engine carries it like any other handler.
type call func()

func (f call) HandleMsgEvent(uint8, *msg.Message) { f() }

// at schedules fn on e at absolute cycle t.
func at(e *Engine, t Time, fn func()) { e.ScheduleMsg(t, call(fn), 0, nil) }

// after schedules fn on e d cycles from now.
func after(e *Engine, d Time, fn func()) { e.AfterMsg(d, call(fn), 0, nil) }
