package main

import (
	"bufio"
	"container/heap"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"time"

	"repro/internal/stats"
)

// The box this benchmark runs on changes speed under it. Pure arithmetic
// pinned to one CPU completes 13 % more or fewer iterations from one
// 100 ms to the next, the two CPUs independently of each other, and ten
// back-to-back 30 s windows of the same code read admit_p50 0.239 to
// 0.316 ms and 28 to 38 ms: the spread between the quartiles of ten runs
// was 0.18 (p50), 0.31 (p95) and 0.21 (ops_per_s) as measured, above any
// bound BENCHMARK.json may state. A longer window does not average out
// a mode that outlasts the run.
//
// So the run also times a reference kernel: fixed work that calls
// nothing in this repository, in a child process of its own, so that
// nothing the daemon does to this process's heap or collector can reach
// it. The child runs a slice of the kernel whenever the client is idle
// and asks for one (forty times across the window, ten across the
// set-up, around every recovery) and each timing is reported in
// reference time: as measured × refKernelSeconds ÷ the median of the
// kernel's times in the same phase. A slow machine moves both and
// cancels; a change to the product moves only the metric.

// refKernelSeconds is the kernel's time on the reference box in its
// usual state; it only fixes the unit, so that reference milliseconds
// read like milliseconds.
const refKernelSeconds = 80e-6

// kernelSlice is how long the child runs the kernel each time it is
// asked.
const kernelSlice = 40 * time.Millisecond

// refGrid is the side of the torus the kernel searches.
const refGrid = 24

type refHeap struct {
	node []int32
	dist []float64
}

func (h *refHeap) Len() int           { return len(h.node) }
func (h *refHeap) Less(i, j int) bool { return h.dist[i] < h.dist[j] }
func (h *refHeap) Swap(i, j int) {
	h.node[i], h.node[j] = h.node[j], h.node[i]
	h.dist[i], h.dist[j] = h.dist[j], h.dist[i]
}
func (h *refHeap) Push(x interface{}) {
	e := x.([2]float64)
	h.node, h.dist = append(h.node, int32(e[0])), append(h.dist, e[1])
}
func (h *refHeap) Pop() interface{} {
	n := len(h.node) - 1
	e := [2]float64{float64(h.node[n]), h.dist[n]}
	h.node, h.dist = h.node[:n], h.dist[:n]
	return e
}

// refKernel is one unit of reference work: a shortest-path search over
// a fixed weighted torus on container/heap, which computes, allocates
// and chases pointers in about the daemon's proportions. Of six
// candidates timed beside the product (arithmetic only, JSON round
// trip, this one, loopback round trips, write+fsync, memory walk) it
// followed both workloads best; see benchmark/KERNEL.md.
func refKernel() float64 {
	const n = refGrid * refGrid
	var dist [n]float64
	for i := range dist {
		dist[i] = 1e18
	}
	dist[0] = 0
	h := &refHeap{}
	heap.Push(h, [2]float64{0, 0})
	for h.Len() > 0 {
		e := heap.Pop(h).([2]float64)
		u, d := int(e[0]), e[1]
		if d > dist[u] {
			continue
		}
		r, c := u/refGrid, u%refGrid
		for k, v := range [4]int{
			((r+1)%refGrid)*refGrid + c, ((r+refGrid-1)%refGrid)*refGrid + c,
			r*refGrid + (c+1)%refGrid, r*refGrid + (c+refGrid-1)%refGrid,
		} {
			w := 1 + float64((u*7+v*13+k)%11)/10
			if nd := d + w; nd < dist[v] {
				dist[v] = nd
				heap.Push(h, [2]float64{float64(v), nd})
			}
		}
	}
	return dist[n/2]
}

// kernelChild is the child's whole life: for every line on standard
// input run the kernel for one slice and print the median time of a
// unit; end when the parent closes the pipe.
func kernelChild() error {
	in := bufio.NewReader(os.Stdin)
	sink := 0.0
	for {
		if _, err := in.ReadString('\n'); err != nil {
			if sink < 0 {
				return fmt.Errorf("kernel: negative distance %g", sink)
			}
			return nil
		}
		var times []float64
		for start := time.Now(); time.Since(start) < kernelSlice; {
			t0 := time.Now()
			sink += refKernel()
			times = append(times, time.Since(t0).Seconds())
		}
		if _, err := fmt.Println(strconv.FormatFloat(stats.Percentile(times, 50), 'g', -1, 64)); err != nil {
			return err
		}
	}
}

// speedometer is the parent's end of the kernel child. A nil
// speedometer (the package test, which has no binary to start) takes no
// slices and converts nothing.
type speedometer struct {
	cmd     *exec.Cmd
	in      io.WriteCloser
	out     *bufio.Reader
	samples []float64
	spent   time.Duration // inside slice(), so a phase can leave it out
	err     error         // the first failure to talk to the child
}

func startSpeedometer(self string) (*speedometer, error) {
	cmd := exec.Command(self, "-kernel-child")
	cmd.Stderr = os.Stderr
	in, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start kernel child: %w", err)
	}
	return &speedometer{cmd: cmd, in: in, out: bufio.NewReader(out)}, nil
}

// slice has the child run the kernel for one slice and keeps its time.
func (s *speedometer) slice() {
	if s == nil || s.err != nil {
		return
	}
	defer func(start time.Time) { s.spent += time.Since(start) }(time.Now())
	if _, s.err = s.in.Write([]byte{'\n'}); s.err != nil {
		return
	}
	line, err := s.out.ReadString('\n')
	if err != nil {
		s.err = err
		return
	}
	t, err := strconv.ParseFloat(strings.TrimSpace(line), 64)
	if err != nil {
		s.err = err
		return
	}
	s.samples = append(s.samples, t)
}

func (s *speedometer) spentSeconds() float64 {
	if s == nil {
		return 0
	}
	return s.spent.Seconds()
}

// mark is the start of a phase: factor(mark) covers the slices taken
// since.
func (s *speedometer) mark() int {
	if s == nil {
		return 0
	}
	return len(s.samples)
}

// kernelSeconds is the median time of a kernel unit over the slices taken
// since mark.
func (s *speedometer) kernelSeconds(mark int) float64 {
	if s == nil || len(s.samples) == mark {
		return refKernelSeconds
	}
	return stats.Percentile(s.samples[mark:], 50)
}

// factor converts a time measured since mark to reference time.
func (s *speedometer) factor(mark int) float64 { return refKernelSeconds / s.kernelSeconds(mark) }

// stop ends the child and waits for it.
func (s *speedometer) stop() error {
	if s == nil {
		return nil
	}
	s.in.Close()
	if err := s.cmd.Wait(); err != nil {
		return fmt.Errorf("kernel child: %w", err)
	}
	if s.err != nil {
		return fmt.Errorf("kernel child: %w", s.err)
	}
	return nil
}
