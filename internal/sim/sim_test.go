package sim

import (
	"math"
	"sort"
	"testing"
)

func TestEngineOrdering(t *testing.T) {
	eng := NewEngine()
	var order []int
	eng.Schedule(3, func() { order = append(order, 3) })
	eng.Schedule(1, func() { order = append(order, 1) })
	eng.Schedule(2, func() { order = append(order, 2) })
	n := eng.Run()
	if n != 3 {
		t.Fatalf("processed %d events, want 3", n)
	}
	if !sort.IntsAreSorted(order) {
		t.Fatalf("events out of order: %v", order)
	}
	if eng.Now() != 3 {
		t.Fatalf("Now = %v, want 3", eng.Now())
	}
}

func TestEngineFIFOAtSameTime(t *testing.T) {
	eng := NewEngine()
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		eng.Schedule(1, func() { order = append(order, i) })
	}
	eng.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-time events not FIFO: %v", order)
		}
	}
}

func TestEngineNestedScheduling(t *testing.T) {
	eng := NewEngine()
	var times []float64
	eng.Schedule(1, func() {
		times = append(times, eng.Now())
		eng.Schedule(2, func() { times = append(times, eng.Now()) })
	})
	eng.Run()
	if len(times) != 2 || times[0] != 1 || times[1] != 3 {
		t.Fatalf("nested scheduling wrong: %v", times)
	}
}

func TestEngineNegativeDelayPanics(t *testing.T) {
	eng := NewEngine()
	defer func() {
		if recover() == nil {
			t.Fatal("negative delay must panic")
		}
	}()
	eng.Schedule(-1, func() {})
}

func TestSimulatePSSingleTask(t *testing.T) {
	// Work 100 MI, demand 10 MIPS, capacity 100: WC rate = 100 -> 1s.
	fin := SimulatePS(100, []Task{{Work: 100, Demand: 10}})
	if math.Abs(fin[0]-1) > 1e-9 {
		t.Fatalf("WC finish = %v, want 1", fin[0])
	}
}

func TestSimulatePSTwoTasksHandComputed(t *testing.T) {
	// Capacity 10. Tasks: A(10 MI, 10 MIPS), B(5 MI, 10 MIPS).
	// WC: equal demands -> 5 MIPS each. B drains at t=1. Then A has
	// 5 MI left at rate 10 -> finishes at 1.5.
	fin := SimulatePS(10, []Task{{10, 10}, {5, 10}})
	if math.Abs(fin[1]-1) > 1e-9 || math.Abs(fin[0]-1.5) > 1e-9 {
		t.Fatalf("WC finishes = %v, want [1.5 1]", fin)
	}
}

func TestSimulatePSWeightedShares(t *testing.T) {
	// Capacity 12, demands 1 and 2 with works 1 and 2: rates 4 and 8,
	// both finish at 0.25 together; recompute fires once for both.
	fin := SimulatePS(12, []Task{{1, 1}, {2, 2}})
	if math.Abs(fin[0]-0.25) > 1e-9 || math.Abs(fin[1]-0.25) > 1e-9 {
		t.Fatalf("finishes = %v, want [0.25 0.25]", fin)
	}
}

func TestSimulatePSZeroWork(t *testing.T) {
	fin := SimulatePS(10, []Task{{0, 5}, {10, 5}})
	if fin[0] != 0 {
		t.Fatalf("zero-work task finish = %v, want 0", fin[0])
	}
	if math.Abs(fin[1]-1) > 1e-9 {
		t.Fatalf("real task finish = %v, want 1 (full capacity)", fin[1])
	}
}

func TestSimulatePSStarvation(t *testing.T) {
	fin := SimulatePS(0, []Task{{10, 5}})
	if !math.IsInf(fin[0], 1) {
		t.Fatalf("zero-capacity host must starve the task, got %v", fin[0])
	}
}

func TestSimulatePSEmpty(t *testing.T) {
	if fin := SimulatePS(10, nil); len(fin) != 0 {
		t.Fatal("no tasks -> no finishes")
	}
}

func TestSimulatePSConservation(t *testing.T) {
	// Under WC the host is fully utilised until the last completion:
	// makespan == total work / capacity.
	tasks := []Task{{30, 3}, {20, 7}, {50, 1}, {10, 9}}
	fin := SimulatePS(10, tasks)
	want := (30.0 + 20 + 50 + 10) / 10
	last := 0.0
	for _, f := range fin {
		if f > last {
			last = f
		}
	}
	if math.Abs(last-want) > 1e-6 {
		t.Fatalf("WC makespan = %v, want %v (work conservation)", last, want)
	}
}
