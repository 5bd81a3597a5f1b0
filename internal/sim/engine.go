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

// event is a scheduled callback.
type event struct {
	time float64
	seq  uint64
	fn   func()
}

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
func (e *Engine) Schedule(delay float64, fn func()) {
	if delay < 0 || math.IsNaN(delay) {
		panic("sim: negative or NaN delay")
	}
	heap.Push(&e.events, &event{time: e.now + delay, seq: e.seq, fn: fn})
	e.seq++
}

// Step executes the next pending event. It returns false when the
// calendar is empty.
func (e *Engine) Step() bool {
	if e.events.Len() == 0 {
		return false
	}
	ev := heap.Pop(&e.events).(*event)
	e.now = ev.time
	e.count++
	ev.fn()
	return true
}

// Run executes events until the calendar empties and returns the number
// of events processed during this call.
func (e *Engine) Run() int {
	start := e.count
	for e.Step() {
	}
	return e.count - start
}

type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].time != h[j].time {
		return h[i].time < h[j].time
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x interface{}) { *h = append(*h, x.(*event)) }
func (h *eventHeap) Pop() interface{} {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return ev
}
