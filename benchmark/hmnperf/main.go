// Command hmnperf is the repository's benchmark: it generates a workload
// from a seed, drives a real in-process hmnd over loopback HTTP with one
// closed-loop client, checks every answer against its own shadow ledger,
// recovers the daemon from a crash image in fresh processes, and prints
// the end-to-end metrics (or, with -trace 1, the per-layer metrics of a
// traced direct-drive pass over the same operations). See
// benchmark/README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"time"

	"repro/internal/server"
	"repro/internal/stats"
)

// recoverRepeats is how many fresh processes recover the crash image;
// recover_s is their median.
const recoverRepeats = 5

// How many slices of the reference kernel are spread over the set-up's
// warm-up and over the window, and taken on each side of a recovery. A
// slice's time scatters by a tenth, so a phase's median needs a few
// dozen.
const (
	setupSlices   = 20
	windowSlices  = 40
	recoverSlices = 3
)

type options struct {
	seed     int64
	seconds  int
	trace    bool
	dataDir  string
	traceDir string
	// toy and ops shrink a run for the package test; self is the binary
	// the recovery children and the kernel child are started from (""
	// recovers in-process and takes no kernel slices).
	toy  bool
	ops  int
	self string
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the run's report; its JSON form is the last line printed.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	digest string
}

func (r *result) set(name string, v float64, unit string) { r.Metrics[name] = metric{v, unit} }

func main() {
	var o options
	var trace int
	var name, child string
	flag.StringVar(&name, "workload", "", "workload name (see BENCHMARK.json)")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed; the daemon only ever sees generated inputs")
	flag.IntVar(&o.seconds, "seconds", 30, "requested measuring time; the window is a fixed rate x seconds operations")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced pass and prints the per-layer metrics")
	flag.StringVar(&o.dataDir, "data-dir", filepath.Join(".bench_build", "data"), "parent of the run's data directories")
	kchild := flag.Bool("kernel-child", false, "internal: time slices of the reference kernel on request")
	flag.StringVar(&child, "recover-child", "", "internal: recover this data directory once and print the timing")
	flag.Parse()
	o.trace = trace != 0
	o.traceDir = filepath.Join("benchmark", "out")

	if *kchild {
		runtime.GOMAXPROCS(benchProcs)
		if err := kernelChild(); err != nil {
			fmt.Fprintln(os.Stderr, "hmnperf:", err)
			os.Exit(1)
		}
		return
	}
	d, ok := defByName(name)
	if !ok {
		fmt.Fprintf(os.Stderr, "hmnperf: unknown workload %q\n", name)
		os.Exit(2)
	}
	if child != "" {
		if err := recoverChild(d, child); err != nil {
			fmt.Fprintln(os.Stderr, "hmnperf:", err)
			os.Exit(1)
		}
		return
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "hmnperf:", err)
		os.Exit(1)
	}
	o.self = self
	res, err := runBench(d, o, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hmnperf:", err)
	}
	// An aborted run still reports what it attempted and that it failed.
	line, merr := json.Marshal(res)
	if merr != nil {
		fmt.Fprintln(os.Stderr, "hmnperf:", merr)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if err != nil || !res.Correct {
		os.Exit(1)
	}
}

// childReport is what a recovery child prints.
type childReport struct {
	Seconds   float64  `json:"seconds"` // New + Recover()
	Residuals []string `json:"residuals"`
}

func recoverChild(d def, dir string) error {
	runtime.GOMAXPROCS(benchProcs)
	rep, err := recoverReport(d, dir)
	if err != nil {
		return err
	}
	return json.NewEncoder(os.Stdout).Encode(rep)
}

func recoverReport(d def, dir string) (childReport, error) {
	seconds, residuals, err := recoverOnce(d, dir)
	rep := childReport{Seconds: seconds}
	for _, r := range residuals {
		rep.Residuals = append(rep.Residuals, string(r))
	}
	return rep, err
}

// benchProcs is the run's GOMAXPROCS. One closed-loop client never has
// two requests in flight, so a second P adds no work in parallel, only a
// cross-thread wakeup per hop whose latency is the host scheduler's:
// same code, same seed, admit p50 read 0.45-0.68 ms at 2 and
// 0.27-0.30 ms at 1 on the 2-core reference box.
const benchProcs = 1

// session is one set-up: a generated workload, a live daemon and the
// pass that has prefilled and warmed it.
type session struct {
	g *generated
	d *daemon
	t *httpTarget
	p *pass
}

// setup generates the workload from the seed, starts the daemon on dir,
// opens the tenants, prefills to the live window and plays the warm-up
// churn (AR cache, scratch pools and snapshot free-list warm), with
// slices of the reference kernel spread over it.
func setup(d def, o options, dir string, speed *speedometer) (*session, error) {
	g, err := generate(d, o.seed)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	dm, err := startDaemon(g, dir)
	if err != nil {
		return nil, err
	}
	s := &session{g: g, d: dm}
	s.t = &httpTarget{base: dm.url, client: &http.Client{}, fed: d.fed}
	s.p = newPass(g, s.t)
	if err := s.t.openSessions(g); err != nil {
		_, _ = dm.stop()
		return nil, err
	}
	s.p.speed, s.p.sliceEvery = speed, (g.def.live+g.def.warmup)/setupSlices+1
	if err := s.p.run(g.def.live + g.def.warmup); err != nil {
		_, _ = dm.stop()
		return nil, err
	}
	return s, nil
}

func (s *session) scrape() (map[string]float64, time.Duration, error) {
	code, raw, d, err := s.t.do("GET", "/metrics", nil)
	if err == nil && code != http.StatusOK {
		err = statusErr("metrics", code, raw)
	}
	return parseMetrics(raw), d, err
}

// runBench is one run. It always returns a result: if the run aborts
// (err != nil), one that is not correct and carries the operations the
// window had played and at least one failure.
func runBench(d def, o options, out io.Writer) (res *result, err error) {
	runtime.GOMAXPROCS(benchProcs)
	if o.toy {
		d = d.shrunk()
	}
	res = &result{Metrics: map[string]metric{}}
	var s *session
	var rec *recorder
	defer func() {
		if err == nil {
			return
		}
		res.Correct, res.Attempted, res.Failed = false, 1, 1
		if rec != nil && rec.ops > 1 {
			res.Attempted = rec.ops
		}
		if s != nil && s.p.failures > 1 {
			res.Failed = s.p.failures
		}
	}()
	root := filepath.Join(o.dataDir, fmt.Sprintf("%s-%d", d.name, os.Getpid()))
	if err := os.MkdirAll(root, 0o755); err != nil {
		return res, err
	}
	defer os.RemoveAll(root)
	live, image := filepath.Join(root, "live"), filepath.Join(root, "image")

	var speed *speedometer
	if o.self != "" {
		if speed, err = startSpeedometer(o.self); err != nil {
			return res, err
		}
		defer func() {
			if serr := speed.stop(); err == nil {
				err = serr
			}
		}()
	}

	mark, spent := speed.mark(), speed.spentSeconds()
	speed.slice()
	setupStart := time.Now()
	if s, err = setup(d, o, live, speed); err != nil {
		return res, fmt.Errorf("set-up: %w", err)
	}
	// The slices inside the set-up are not the set-up's time.
	setupMeasured := time.Since(setupStart).Seconds() - (speed.spentSeconds() - spent)
	speed.slice()
	setupFactor := speed.factor(mark)
	stopped := false
	defer func() {
		if !stopped {
			_, _ = s.d.stop()
		}
	}()

	// The warm-up/measure boundary: the client is idle, so every acked
	// operation is durable and a copy of the data directory is what a
	// crash right now would leave behind.
	boundary, err := s.p.checkResiduals()
	if err != nil {
		return res, fmt.Errorf("boundary check: %w", err)
	}
	if err := copyDir(live, image); err != nil {
		return res, err
	}
	before, _, err := s.scrape()
	if err != nil {
		return res, err
	}

	n := o.ops
	if n == 0 {
		n = int(math.Round(d.rate * float64(o.seconds)))
		if o.trace {
			n /= 2 // the traced run plays the window twice
		}
	}
	// Start the window's high-water mark from a collected heap, so it is
	// the window's and not the set-up's.
	debug.FreeOSMemory()
	resetPeakRSS()
	rec = newRecorder(n)
	s.p.rec, s.p.sliceEvery = rec, n/windowSlices+1
	mark = speed.mark()
	speed.slice()
	windowStart := time.Now()
	if err := s.p.run(n); err != nil {
		return res, fmt.Errorf("measured window: %w", err)
	}
	window := time.Since(windowStart)
	s.p.rec, s.p.sliceEvery = nil, 0
	speed.slice()
	windowFactor, kernelUS := speed.factor(mark), 1e6*speed.kernelSeconds(mark)
	rss, err := peakRSSMB()
	if err != nil {
		return res, err
	}
	if _, err := s.p.checkResiduals(); err != nil {
		return res, fmt.Errorf("end check: %w", err)
	}
	after, scrapeTime, err := s.scrape()
	if err != nil {
		return res, err
	}
	liveBytes, err := dirBytes(live)
	if err != nil {
		return res, err
	}
	imageBytes, err := dirBytes(image)
	if err != nil {
		return res, err
	}

	res.Attempted, res.digest = rec.ops, s.p.digestHex()
	fmt.Fprintf(out, "data dir %s (%s), GOMAXPROCS %d, %s\n", root, fsType(root), runtime.GOMAXPROCS(0), runtime.Version())
	fmt.Fprintf(out, "workload %s seed %d: %d ops in %.2f s wall (%.2f s service), %d admits (%d rejected), %d mappings validated, digest %s\n",
		d.name, o.seed, rec.ops, window.Seconds(), rec.busyTotal().Seconds(), rec.admits, rec.rejected, s.p.validated, res.digest)
	for _, kind := range []string{"admit", "release", "fail", "restore"} {
		if rec.kindOps[kind] > 0 {
			fmt.Fprintf(out, "  %-8s %6d ops, %.3f of service time\n", kind, rec.kindOps[kind], rec.busy[kind].Seconds()/rec.busyTotal().Seconds())
		}
	}
	if d.failEvery > 0 {
		fmt.Fprintf(out, "  repairs %v\n", rec.repairs)
	}
	if d.fed {
		fmt.Fprintf(out, "  router: %d off the hashed path, %d split\n", rec.fallback, rec.splits)
	}

	if !o.trace {
		stopped = true
		if _, err := s.d.stop(); err != nil {
			return res, err
		}
		mark = speed.mark()
		recovers, err := recoverImage(d, o, root, image, boundary, speed)
		if err != nil {
			return res, err
		}
		recoverFactor := speed.factor(mark)
		p50 := stats.Percentile(rec.admitMS, 50)
		fmt.Fprintf(out, "  as measured: set-up %.3f s, admit p50 %.4f ms (p95 %.4f, p99 %.4f), %.1f op/s, recoveries %.3f s of a %d-byte image\n",
			setupMeasured, p50, stats.Percentile(rec.admitMS, 95), stats.Percentile(rec.admitMS, 99), rec.opsPerSecond(), recovers, imageBytes)
		fmt.Fprintf(out, "  reference kernel %.1f us over the window; to reference time: set-up x%.3f, window x%.3f, recovery x%.3f\n",
			kernelUS, setupFactor, windowFactor, recoverFactor)
		res.set("setup_s", setupFactor*setupMeasured, "s")
		res.set("admit_p50_ms", windowFactor*p50, "ms")
		res.set("ops_per_s", rec.opsPerSecond()/windowFactor, "op/s")
		res.set("recover_s", recoverFactor*stats.Percentile(recovers, 50), "s")
		res.set("peak_rss_mb", rss, "MB")
		res.set("accept_ratio", 1-float64(rec.rejected)/float64(rec.admits), "ratio")
		res.set("objective_mean", rec.objSum/float64(rec.ops), "MIPS")
	} else {
		var reb server.RebalanceResponse
		var rebTime time.Duration
		if d.rebalanceProbe {
			if reb, rebTime, err = s.rebalance(); err != nil {
				return res, err
			}
		}
		stopped = true
		closeTime, err := s.d.stop()
		if err != nil {
			return res, err
		}
		tl := &traced{res: res, s: s, rec: rec, o: o, root: root, image: image}
		if err := tl.run(); err != nil {
			return res, err
		}
		ops := float64(rec.ops)
		fsyncs := after["hmnd_wal_fsync_seconds_count"] - before["hmnd_wal_fsync_seconds_count"] +
			after["hmnd_shard_wal_fsync_seconds_count"] - before["hmnd_shard_wal_fsync_seconds_count"]
		records := after["hmnd_wal_records_total"] - before["hmnd_wal_records_total"] +
			after["hmnd_shard_wal_records_total"] - before["hmnd_shard_wal_records_total"]
		res.set("wal.bytes_per_op", float64(liveBytes-imageBytes)/ops, "B")
		res.set("wal.fsyncs_per_op", fsyncs/ops, "count")
		res.set("wal.records", records, "count")
		res.set("wal.snapshot_ms", 1e3*closeTime.Seconds(), "ms")
		res.set("rebalance.round_ms", 1e3*rebTime.Seconds(), "ms")
		res.set("rebalance.moves", float64(reb.Moves), "count")
		res.set("rebalance.objective_gain", reb.StdDevBefore-reb.StdDevAfter, "MIPS")
		res.set("metrics.scrape_ms", 1e3*scrapeTime.Seconds(), "ms")
		res.set("bench.kernel_us", kernelUS, "us")
		res.set("bench.window_s", window.Seconds(), "s")
		res.Attempted += tl.ops
	}

	res.Failed = s.p.failures
	res.Correct = res.Failed == 0
	if s.p.firstErr != nil {
		fmt.Fprintln(out, "first failure:", s.p.firstErr)
	}
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(out, "%-32s %14.6g %s\n", name, res.Metrics[name].Value, res.Metrics[name].Unit)
	}
	return res, nil
}

// rebalance runs one rebalancing round on the live daemon. It moves
// guests, so it comes after the last residual check.
func (s *session) rebalance() (server.RebalanceResponse, time.Duration, error) {
	path := "/v1/sessions/s1/rebalance"
	if s.g.def.fed {
		path = "/v1/shards/0/rebalance"
	}
	var resp server.RebalanceResponse
	code, raw, d, err := s.t.do("POST", path, nil)
	if err == nil && code != http.StatusOK {
		err = statusErr("rebalance", code, raw)
	}
	if err == nil {
		err = json.Unmarshal(raw, &resp)
	}
	return resp, d, err
}

// recoverImage recovers fresh copies of the crash image, each in a
// fresh process of this binary, and returns each one's New + Recover()
// time as measured, with a slice of the reference kernel on both sides
// of each. Every recovery's residuals must be byte-identical to the
// live daemon's at the boundary.
func recoverImage(d def, o options, root, image string, boundary [][]byte, speed *speedometer) ([]float64, error) {
	var secs []float64
	slices := func() {
		for k := 0; k < recoverSlices; k++ {
			speed.slice()
		}
	}
	slices()
	for i := 0; i < recoverRepeats; i++ {
		dir := filepath.Join(root, "recover")
		if err := copyDir(image, dir); err != nil {
			return nil, err
		}
		var rep childReport
		if o.self == "" {
			var err error
			if rep, err = recoverReport(d, dir); err != nil {
				return nil, err
			}
		} else {
			cmd := exec.Command(o.self, "-workload", d.name, "-recover-child", dir)
			cmd.Stderr = os.Stderr
			raw, err := cmd.Output()
			if err != nil {
				return nil, fmt.Errorf("recovery child: %w", err)
			}
			if err := json.Unmarshal(raw, &rep); err != nil {
				return nil, fmt.Errorf("recovery child: %w", err)
			}
		}
		if len(rep.Residuals) != len(boundary) {
			return nil, fmt.Errorf("recovery %d: %d residual vectors, boundary has %d", i, len(rep.Residuals), len(boundary))
		}
		for k := range boundary {
			if rep.Residuals[k] != string(boundary[k]) {
				return nil, fmt.Errorf("recovery %d: shard %d residuals differ from the boundary capture", i, k)
			}
		}
		secs = append(secs, rep.Seconds)
		slices()
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
	}
	return secs, nil
}
