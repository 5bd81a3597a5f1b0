package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/stats"
)

// traced is the second half of a -trace 1 run: a direct-drive pass over
// the same operations as the HTTP pass, with spans, followed by the
// single-layer profiles; it fills in the per-layer metrics.
type traced struct {
	res   *result
	s     *session  // the HTTP pass, finished
	rec   *recorder // its window
	o     options
	root  string
	image string
	ops   int
}

func us(sec float64) float64 { return 1e6 * sec }
func ms(sec float64) float64 { return 1e3 * sec }

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func (tl *traced) run() error {
	g, res := tl.s.g, tl.res
	n := tl.rec.total

	tr := &tracer{t0: time.Now(), spans: make([]span, 0, 8*n)}
	dt, err := newDirectTarget(g, filepath.Join(tl.root, "direct"), tr)
	if err != nil {
		return fmt.Errorf("direct pass: %w", err)
	}
	p := newPass(g, dt)
	if err := p.run(g.def.live + g.def.warmup); err != nil {
		_ = dt.close()
		return fmt.Errorf("direct pass warm-up: %w", err)
	}
	statsBefore := dt.admissionStats()
	dt.requestBytes, dt.responseBytes, dt.replies, dt.commitSeconds, dt.commits = 0, 0, 0, 0, 0
	tr.on = true
	p.rec = newRecorder(n)
	err = p.run(n)
	tr.on = false
	if err == nil {
		_, err = p.checkResiduals()
	}
	statsAfter := dt.admissionStats()
	if cerr := dt.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("direct pass: %w", err)
	}
	tl.ops = p.rec.ops
	tl.s.p.failures += p.failures
	if tl.s.p.firstErr == nil {
		tl.s.p.firstErr = p.firstErr
	}
	if got, want := p.digestHex(), tl.s.p.digestHex(); got != want {
		return fmt.Errorf("direct pass digest %s differs from the HTTP pass digest %s: the two did different work", got, want)
	}
	if err := os.MkdirAll(tl.o.traceDir, 0o755); err != nil {
		return err
	}
	if err := tr.write(filepath.Join(tl.o.traceDir, "trace_"+g.def.name+".json")); err != nil {
		return err
	}

	self := tr.selfTimes()
	p50 := func(name string) float64 { return stats.Percentile(self[name], 50) }
	res.set("spec.decode_us", us(p50("spec.decode")), "us")
	res.set("spec.encode_us", us(p50("spec.encode")), "us")
	res.set("spec.request_bytes", ratio(float64(dt.requestBytes), float64(p.rec.admits)), "B")
	res.set("spec.response_bytes", ratio(float64(dt.responseBytes), float64(dt.replies)), "B")
	res.set("core.map_ms", ms(p50("core.map")), "ms")
	res.set("core.commit_us", us(ratio(dt.commitSeconds, float64(dt.commits))), "us")
	res.set("core.release_us", us(p50("core.release")), "us")
	res.set("wal.append_us", us(p50("wal.append")), "us")
	res.set("wal.barrier_us", us(p50("wal.barrier")), "us")
	// The repair and shard layers exist only on the workloads that use
	// them, which BENCHMARK.json does not list (see benchmark/README.md).
	if g.def.failEvery > 0 {
		res.set("core.repair_ms", ms(p50("core.repair")), "ms")
		res.set("core.restore_us", us(p50("core.restore")), "us")
		res.set("core.repaired_ratio", ratio(float64(p.rec.repairs["repaired"]), float64(p.rec.evicted)), "ratio")
	}
	if g.def.fed {
		res.set("shard.admit_ms", ms(p50("shard.admit")), "ms")
		res.set("shard.release_us", us(p50("shard.release")), "us")
		res.set("shard.fallback_ratio", ratio(float64(p.rec.fallback), float64(p.rec.admits)), "ratio")
		res.set("shard.split_ratio", ratio(float64(p.rec.splits), float64(p.rec.admits)), "ratio")
		res.set("shard.gateway_in_use_peak", dt.gatewayPeak, "Mbps")
	}

	hits := float64(statsAfter.ARCacheHits - statsBefore.ARCacheHits)
	misses := float64(statsAfter.ARCacheMisses - statsBefore.ARCacheMisses)
	res.set("core.ar_cache_hit_ratio", ratio(hits, hits+misses), "ratio")
	res.set("core.admit_conflicts", float64(statsAfter.Conflicts-statsBefore.Conflicts), "count")
	res.set("core.admit_fallbacks", float64(statsAfter.Fallbacks-statsBefore.Fallbacks), "count")

	// The server layer is what HTTP, the admission queue and the worker
	// pool add to the re-enacted handler.
	httpP50 := stats.Percentile(tl.rec.admitMS, 50)
	directP50 := ms(stats.Percentile(tr.durations("op.admit"), 50))
	res.set("server.overhead_ms", httpP50-directP50, "ms")
	res.set("server.unattributed_share", ratio(httpP50-directP50, httpP50), "ratio")
	// The tail is advisory: a stall of the box's virtual CPU hits about
	// one 0.25 ms admit in twenty, and the 95th percentile moved by 31 %
	// between two sets of runs of the same code.
	res.set("server.admit_p95_ms", stats.Percentile(tl.rec.admitMS, 95), "ms")
	res.set("bench.trace_overhead_share",
		ratio(spanCost()*float64(len(tr.spans)), p.rec.busyTotal().Seconds()), "ratio")

	st := profileStages(g, 16)
	res.set("core.hosting_ms", ms(st.hosting), "ms")
	res.set("core.migration_ms", ms(st.migration), "ms")
	res.set("core.networking_ms", ms(st.networking), "ms")
	res.set("core.networking_share", ratio(st.networking, st.hosting+st.migration+st.networking), "ratio")
	res.set("core.migration_moves", st.moves, "count")
	// The stage share is large on every testbed (Hosting and Migration
	// are tens of microseconds); what separates the workloads is how
	// much of a whole admit the Networking stage is.
	res.set("core.networking_admit_share", ratio(ms(st.networking), directP50), "ratio")

	astar, found, dijkstra, err := profileGraph(g, tl.o.seed, 2000)
	if err != nil {
		return err
	}
	res.set("graph.astarprune_us", us(astar), "us")
	res.set("graph.astarprune_found_ratio", found, "ratio")
	res.set("graph.dijkstra_us", us(dijkstra), "us")

	snap, commit, err := profileLedger(g, 2000)
	if err != nil {
		return err
	}
	res.set("cluster.snapshot_us", us(snap), "us")
	res.set("cluster.txn_commit_us", us(commit), "us")
	res.set("mapping.validate_us", us(ratio((tl.s.p.validateNS+p.validateNS).Seconds(), float64(tl.s.p.validated+p.validated))), "us")

	scan, replay, err := profileWAL(g, tl.image)
	if err != nil {
		return err
	}
	res.set("wal.scan_ms", ms(scan), "ms")
	res.set("wal.replay_us_per_record", us(replay), "us")
	if g.def.fed {
		shardRecover, err := profileShardRecover(g, tl.image, filepath.Join(tl.root, "shard-recover"))
		if err != nil {
			return err
		}
		res.set("shard.recover_ms", ms(shardRecover), "ms")
	}
	return nil
}
