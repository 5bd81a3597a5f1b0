// Package sim is the discrete-event simulation substrate of the
// reproduction — the stand-in for the CloudSim framework the paper runs
// its evaluation on (§5). It provides a generic event engine plus an
// emulation-experiment model: guests execute CPU tasks on
// processor-sharing hosts while virtual links carry transfers at their
// reserved bandwidth, and the experiment's makespan is the quantity
// Table 3 reports and §5.2 correlates with the objective function.
package sim

import (
	"container/heap"
	"math"
)

// Event is a scheduled callback. It is returned by Schedule so callers
// can cancel it.
type Event struct {
	time      float64
	seq       uint64
	fn        func()
	cancelled bool
	index     int // heap index, -1 once popped
}

// Time returns the simulation time the event fires at.
func (e *Event) Time() float64 { return e.time }

// Engine is a sequential discrete-event engine. The zero value is not
// usable; create one with NewEngine. Engines are not safe for concurrent
// use — each simulation owns one.
type Engine struct {
	now    float64
	seq    uint64
	events eventHeap
	count  int
}

// NewEngine returns an engine at time 0 with an empty calendar.
func NewEngine() *Engine { return &Engine{} }

// Now returns the current simulation time in seconds.
func (e *Engine) Now() float64 { return e.now }

// Processed returns the number of events executed so far.
func (e *Engine) Processed() int { return e.count }

// Schedule registers fn to run delay seconds from now. A negative delay
// panics — the past is immutable in a DES. Events scheduled for the same
// instant fire in scheduling order.
func (e *Engine) Schedule(delay float64, fn func()) *Event {
	if delay < 0 || math.IsNaN(delay) {
		panic("sim: negative or NaN delay")
	}
	ev := &Event{time: e.now + delay, seq: e.seq, fn: fn}
	e.seq++
	heap.Push(&e.events, ev)
	return ev
}

// Cancel prevents ev from firing. Cancelling an already-fired or
// already-cancelled event is a no-op.
func (e *Engine) Cancel(ev *Event) {
	if ev != nil {
		ev.cancelled = true
	}
}

// Step executes the next pending event. It returns false when the
// calendar is empty.
func (e *Engine) Step() bool {
	for e.events.Len() > 0 {
		ev := heap.Pop(&e.events).(*Event)
		if ev.cancelled {
			continue
		}
		e.now = ev.time
		e.count++
		ev.fn()
		return true
	}
	return false
}

// Run executes events until the calendar empties and returns the number
// of events processed during this call.
func (e *Engine) Run() int {
	start := e.count
	for e.Step() {
	}
	return e.count - start
}

// RunUntil executes events with time <= t, then advances the clock to t
// (if it is ahead of the last event). It returns the number of events
// processed during this call.
func (e *Engine) RunUntil(t float64) int {
	start := e.count
	for e.events.Len() > 0 {
		next := e.events[0]
		if next.cancelled {
			heap.Pop(&e.events)
			continue
		}
		if next.time > t {
			break
		}
		e.Step()
	}
	if e.now < t {
		e.now = t
	}
	return e.count - start
}

type eventHeap []*Event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].time != h[j].time {
		return h[i].time < h[j].time
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}
func (h *eventHeap) Push(x interface{}) {
	ev := x.(*Event)
	ev.index = len(*h)
	*h = append(*h, ev)
}
func (h *eventHeap) Pop() interface{} {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	ev.index = -1
	*h = old[:n-1]
	return ev
}
