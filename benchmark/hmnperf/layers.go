package main

import (
	"bufio"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/shard"
	"repro/internal/stats"
	"repro/internal/wal"
)

// This file times single layers from outside, on the workload's own
// testbed and environments, for the per-layer metrics no span of the
// traced run can isolate.

// stageProfile is the paper's Figure 1 measurement: HMN.MapWithStats of
// pool environments on the empty testbed, split by stage.
type stageProfile struct {
	hosting, migration, networking float64 // mean seconds per environment
	moves                          float64
}

func profileStages(g *generated, samples int) stageProfile {
	var p stageProfile
	n := 0
	for i := 0; i < len(g.pool) && n < samples; i++ {
		_, st, err := (&core.HMN{}).MapWithStats(g.clusters[0], g.pool[i].env)
		if err != nil {
			continue // too big for one empty shard: the router would split it
		}
		p.hosting += st.HostingSeconds
		p.migration += st.MigrationSeconds
		p.networking += st.NetworkingSeconds
		p.moves += float64(st.Migration.Moves)
		n++
	}
	if n > 0 {
		p.hosting /= float64(n)
		p.migration /= float64(n)
		p.networking /= float64(n)
		p.moves /= float64(n)
	}
	return p
}

// profileGraph times A*Prune and the Dijkstra latency table on the
// testbed for a seeded sample of (host pair, bandwidth, latency) drawn
// from the pool's virtual links.
func profileGraph(g *generated, seed int64, samples int) (astarSec, foundRatio, dijkstraSec float64, err error) {
	c := g.clusters[0]
	led, err := cluster.NewLedger(c, cluster.VMMOverhead{})
	if err != nil {
		return 0, 0, 0, err
	}
	rng := rand.New(rand.NewSource(deriveSeed(seed, 0x6772)))
	hosts := c.HostNodes()
	net, bw := c.Net(), led.BandwidthFunc()
	var astar, dijkstra []float64
	found := 0
	for i := 0; i < samples; i++ {
		links := g.pool[rng.Intn(len(g.pool))].env.Links()
		if len(links) == 0 {
			continue
		}
		l := links[rng.Intn(len(links))]
		a, b := hosts[rng.Intn(len(hosts))], hosts[rng.Intn(len(hosts))]
		start := time.Now()
		_, ok := graph.AStarPrune(net, a, b, l.BW, l.Lat, bw, nil)
		astar = append(astar, time.Since(start).Seconds())
		if ok {
			found++
		}
		start = time.Now()
		graph.DijkstraLatency(net, b)
		dijkstra = append(dijkstra, time.Since(start).Seconds())
	}
	if len(astar) == 0 {
		return 0, 0, 0, nil
	}
	return stats.Percentile(astar, 50), float64(found) / float64(len(astar)), stats.Percentile(dijkstra, 50), nil
}

// profileLedger times the admission path's two ledger primitives: the
// copy-on-write snapshot (Snapshot once, then SyncFrom per admission)
// and a transaction commit of one environment's worth of guests.
func profileLedger(g *generated, rounds int) (snapshotSec, commitSec float64, err error) {
	c := g.clusters[0]
	led, err := cluster.NewLedger(c, cluster.VMMOverhead{})
	if err != nil {
		return 0, 0, err
	}
	led.EnableJournal()
	env := g.pool[0].env
	hosts := c.HostNodes()
	snap := led.Snapshot()
	var snaps, commits []float64
	for r := 0; r < rounds; r++ {
		start := time.Now()
		txn := led.NewTxn()
		for i, gu := range env.Guests() {
			txn.AddGuest(hosts[(r+i)%len(hosts)], gu.Proc/float64(len(hosts)), 0, 0)
		}
		err := led.Commit(txn)
		commits = append(commits, time.Since(start).Seconds())
		if err != nil {
			return 0, 0, fmt.Errorf("ledger commit: %w", err)
		}
		start = time.Now()
		snap.SyncFrom(led)
		snaps = append(snaps, time.Since(start).Seconds())
		for i, gu := range env.Guests() {
			led.ReleaseGuest(hosts[(r+i)%len(hosts)], gu.Proc/float64(len(hosts)), 0, 0)
		}
	}
	return stats.Percentile(snaps, 50), stats.Percentile(commits, 50), nil
}

// walDirs lists the WAL directories of a crash image: the directory
// itself for the classic daemon, one per shard for the federation.
func walDirs(g *generated, image string) []string {
	if !g.def.fed {
		return []string{image}
	}
	var dirs []string
	for k := range g.clusters {
		dirs = append(dirs, filepath.Join(image, "shard-"+strconv.Itoa(k)))
	}
	return dirs
}

// profileWAL scans the crash image and replays every record onto fresh
// sessions, timing wal.Scan and wal.ReplayRecord.
func profileWAL(g *generated, image string) (scanSec, replaySecPerRecord float64, err error) {
	var replay time.Duration
	records := 0
	for _, dir := range walDirs(g, image) {
		start := time.Now()
		rec, err := wal.Scan(dir, wal.Hooks{})
		scanSec += time.Since(start).Seconds()
		if err != nil {
			return 0, 0, err
		}
		var sess *core.Session
		for i := range rec.Records {
			r := &rec.Records[i]
			if r.Kind == wal.KindOpen {
				if sess, _, err = wal.OpenSession(r); err != nil {
					return 0, 0, err
				}
				continue
			}
			if sess == nil {
				return 0, 0, fmt.Errorf("wal %s: %s record before any open", dir, r.Kind)
			}
			start := time.Now()
			err := wal.ReplayRecord(sess, r)
			replay += time.Since(start)
			if err != nil {
				return 0, 0, err
			}
			records++
		}
	}
	if records > 0 {
		replaySecPerRecord = replay.Seconds() / float64(records)
	}
	return scanSec, replaySecPerRecord, nil
}

// profileShardRecover times shard.Recover on a copy of the crash image.
func profileShardRecover(g *generated, image, scratch string) (float64, error) {
	if err := copyDir(image, scratch); err != nil {
		return 0, err
	}
	start := time.Now()
	fed, err := shard.Recover(shard.Config{DataDir: scratch, GatewayBW: g.def.gatewayBW})
	sec := time.Since(start).Seconds()
	if err != nil {
		return 0, err
	}
	return sec, fed.Close()
}

// spanCost is the measured cost of recording one span, in seconds.
func spanCost() float64 {
	const n = 200000
	tr := &tracer{on: true, t0: time.Now(), spans: make([]span, 0, n)}
	start := time.Now()
	for i := 0; i < n; i++ {
		tr.end(tr.begin("x", -1))
	}
	return time.Since(start).Seconds() / n
}

// parseMetrics reads the daemon's /metrics text into name → value.
func parseMetrics(text []byte) map[string]float64 {
	out := map[string]float64{}
	sc := bufio.NewScanner(strings.NewReader(string(text)))
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") {
			continue
		}
		if i := strings.LastIndexByte(line, ' '); i > 0 {
			if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
				out[line[:i]] = v
			}
		}
	}
	return out
}

// resetPeakRSS restarts VmHWM from the current resident set (Linux 4.0
// and later; elsewhere the mark stays the process's).
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB is the process's VmHWM in MB.
func peakRSSMB() (float64, error) {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			f := strings.Fields(line)
			if len(f) >= 2 {
				kb, err := strconv.ParseFloat(f[1], 64)
				return kb / 1024, err
			}
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// fsType names the filesystem holding dir; fsync costs microseconds on
// tmpfs and a noisy half millisecond on a shared virtual disk, so the
// report carries it.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0x01021994:
		return "tmpfs"
	case 0xef53:
		return "ext4"
	case 0x794c7630:
		return "overlayfs"
	}
	return fmt.Sprintf("0x%x", uint32(st.Type))
}

// copyDir copies a directory tree of regular files.
func copyDir(src, dst string) error {
	return filepath.WalkDir(src, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		to := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(to, 0o755)
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(to, raw, 0o644)
	})
}

// dirBytes totals the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		n += info.Size()
		return nil
	})
	return n, err
}
