package sim

import "math"

// Task is one CPU workload on a processor-sharing host: Work is its total
// length in million instructions, Demand its requested rate in MIPS.
type Task struct {
	Work   float64
	Demand float64
}

// psHost simulates one processor-sharing host inside an Engine, the
// model of CloudSim's time-shared VM scheduler: the host's full capacity
// is always divided among active tasks in proportion to their demanded
// MIPS, so VMs run faster than their nominal demand when the host is
// underloaded and slower when it is oversubscribed. That work-conserving
// sharing makes an experiment's makespan track per-host CPU load, which
// is what the paper's objective function balances. Tasks all start at
// time 0; the host recomputes rates whenever a task completes and
// reports each task's finish time.
type psHost struct {
	eng      *Engine
	capacity float64

	remaining []float64 // MI left per task; <=0 means done
	demand    []float64
	active    int
	last      float64 // time of the last rate recomputation

	finish []float64
}

// startPSHost launches the host's tasks at the engine's current time.
// finish times land in the returned slice after the engine runs. Tasks
// with zero work complete immediately at the start time.
func startPSHost(eng *Engine, capacity float64, tasks []Task) *psHost {
	h := &psHost{
		eng:       eng,
		capacity:  capacity,
		remaining: make([]float64, len(tasks)),
		demand:    make([]float64, len(tasks)),
		finish:    make([]float64, len(tasks)),
		last:      eng.Now(),
	}
	for i, t := range tasks {
		h.remaining[i] = t.Work
		h.demand[i] = t.Demand
		if t.Work <= 0 {
			// Zero-work tasks complete instantly; mark done so the
			// completion handler never miscounts them.
			h.finish[i] = eng.Now()
			h.remaining[i] = -1
		} else {
			h.active++
		}
	}
	if h.active > 0 {
		h.reschedule()
	}
	return h
}

// rate returns task i's current execution rate in MIPS.
func (h *psHost) rate(i int) float64 {
	if h.remaining[i] <= 0 {
		return 0
	}
	totalDemand := 0.0
	for j, r := range h.remaining {
		if r > 0 {
			totalDemand += h.demand[j]
		}
	}
	if totalDemand <= 0 {
		return 0
	}
	return h.demand[i] * h.capacity / totalDemand
}

// advance consumes work between the last recomputation and now.
func (h *psHost) advance(now float64) {
	dt := now - h.last
	if dt > 0 {
		// Snapshot all rates before decrementing: zeroing one task's
		// remainder mid-pass would inflate the shares rate() computes for
		// the tasks after it.
		rates := make([]float64, len(h.remaining))
		for i := range h.remaining {
			rates[i] = h.rate(i)
		}
		for i := range h.remaining {
			if h.remaining[i] > 0 {
				h.remaining[i] -= rates[i] * dt
				// Guard float drift: advance is always called with the
				// exact completion time of the earliest finisher, so a
				// tiny negative remainder is rounding, not lost work.
				if h.remaining[i] < 1e-9 {
					h.remaining[i] = 0
				}
			}
		}
	}
	h.last = now
}

// reschedule finds the earliest completion under current rates and books
// the next event.
func (h *psHost) reschedule() {
	soonest := math.Inf(1)
	for i, rem := range h.remaining {
		if rem <= 0 {
			continue
		}
		r := h.rate(i)
		if r <= 0 {
			continue // starved task: never finishes (capacity 0)
		}
		if eta := rem / r; eta < soonest {
			soonest = eta
		}
	}
	if math.IsInf(soonest, 1) {
		return // all remaining tasks are starved
	}
	h.eng.Schedule(soonest, h.complete)
}

// complete fires at the earliest task completion: it advances all tasks,
// records finishers, and reschedules.
func (h *psHost) complete() {
	now := h.eng.Now()
	h.advance(now)
	for i, rem := range h.remaining {
		if rem == 0 {
			// Exactly zero marks "just drained"; already-done tasks carry
			// the -1 marker and are skipped.
			h.finish[i] = now
			h.remaining[i] = -1
			h.active--
		}
	}
	if h.active > 0 {
		h.reschedule()
	}
}

// SimulatePS runs tasks on one processor-sharing host of the given
// capacity to completion and returns each task's finish time (seconds
// from start). Tasks that can never finish (zero capacity with positive
// work) report +Inf.
func SimulatePS(capacity float64, tasks []Task) []float64 {
	eng := NewEngine()
	h := startPSHost(eng, capacity, tasks)
	eng.Run()
	out := make([]float64, len(tasks))
	for i := range tasks {
		switch {
		case tasks[i].Work <= 0:
			out[i] = 0
		case h.remaining[i] > 0:
			out[i] = math.Inf(1)
		default:
			out[i] = h.finish[i]
		}
	}
	return out
}
