// Command hmnwal inspects and compacts an hmnd data directory
// (write-ahead log + snapshot). dump and verify read through wal.Each
// and wal.Verify, which never truncate torn tails or delete segments, so
// pointing them at a live or crashed directory is always safe; both
// stream the log, so its size does not matter either.
//
// Usage:
//
//	hmnwal dump <data-dir>     print the snapshot summary and every log
//	                           record, one JSON object per line
//	hmnwal verify <data-dir>   rebuild every session from snapshot+log
//	                           and cross-check objectives; exit non-zero
//	                           on corruption or divergence
//	hmnwal compact <data-dir>  delete the log segments before the
//	                           snapshot's, which no recovery reads
//
// dump is for eyeballing what a daemon logged ("which admissions landed
// before the crash?"); verify answers "will this directory recover?"
// before restarting the daemon on it. The daemon never deletes a
// segment — the directory is the whole trace of what it did — so
// compact is how an operator reclaims the disk; it is safe against a
// running daemon (wal.Compact).
//
// Each command refuses a directory that holds neither a log segment nor
// a snapshot. Both daemon modes keep one log per data directory, so each
// command runs on any of them: a federation's (hmnd -shards N) holds the
// sessions shard-0 … shard-N-1, one per shard, beside its tenant
// registry.
package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
	"time"

	"repro/internal/wal"
)

func main() {
	if len(os.Args) != 3 || !slices.Contains([]string{"dump", "verify", "compact"}, os.Args[1]) {
		usage()
		os.Exit(2)
	}
	if err := run(os.Stdout, os.Args[1], os.Args[2]); err != nil {
		fmt.Fprintf(os.Stderr, "hmnwal: %v\n", err)
		os.Exit(1)
	}
}

// run runs the command cmd — dump, verify or compact — on dir, printing
// to out.
func run(out io.Writer, cmd, dir string) error {
	if err := checkDir(dir); err != nil {
		return err
	}
	switch cmd {
	case "dump":
		return dump(out, dir)
	case "verify":
		return verify(out, dir)
	}
	removed, err := wal.Compact(dir)
	if err == nil {
		fmt.Fprintf(out, "compacted: %d segment(s) deleted\n", len(removed))
	}
	return err
}

// checkDir refuses a directory that is not a WAL directory.
func checkDir(dir string) error {
	ok, err := wal.HasState(dir)
	if err != nil || ok {
		return err
	}
	return fmt.Errorf("%s is not a WAL directory: it holds no log segment and no snapshot", dir)
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: hmnwal dump|verify|compact <data-dir>")
}

// dump prints the directory contents: a one-line snapshot summary per
// session, then each log record as a JSON object. The record count is
// printed ahead of the records and nothing is held in memory, so the log
// is read twice: once to count, once to print (and to warn of a torn
// tail — once).
func dump(out io.Writer, dir string) error {
	records := 0
	snap, _, err := wal.Each(dir, wal.Hooks{}, func(*wal.Record) error { records++; return nil })
	if err != nil {
		return err
	}
	if snap != nil {
		fmt.Fprintf(out, "snapshot: %d session(s), log resumes at segment %d\n", len(snap.Sessions), snap.FirstSeg)
		for _, sn := range snap.Sessions {
			fmt.Fprintf(out, "  session %s: mapper=%s active=%d next_seq=%d op_count=%d\n",
				sn.SID, sn.Mapper, len(sn.Active), sn.NextSeq, sn.OpCount)
		}
	} else {
		fmt.Fprintln(out, "snapshot: none")
	}
	fmt.Fprintf(out, "log: %d record(s)\n", records)
	enc := json.NewEncoder(out)
	_, truncated, err := wal.Each(dir, wal.Hooks{Logf: warnf}, func(r *wal.Record) error { return enc.Encode(r) })
	if err != nil {
		return err
	}
	if truncated > 0 {
		fmt.Fprintf(out, "torn tail: %d byte(s) after the last valid record (unacknowledged; recovery will truncate)\n", truncated)
	}
	return nil
}

// verify replays the directory with the daemon's own recovery pass
// (wal.Verify: wal.Recover without the repairs) and cross-checks each
// surviving session's incremental objective against a two-pass
// recompute.
func verify(out io.Writer, dir string) error {
	replayed := 0
	start := time.Now()
	rec, err := wal.Verify(dir, wal.Hooks{Logf: warnf}, func(*wal.Replayed, *wal.Record) { replayed++ })
	if err != nil {
		return err
	}
	took := time.Since(start)
	for _, rs := range rec.Sessions {
		cs := rs.Session
		if err := wal.VerifyObjective(cs); err != nil {
			return fmt.Errorf("session %s: %w", rs.SID, err)
		}
		fmt.Fprintf(out, "session %s: ok (active=%d objective=%.6g)\n", rs.SID, cs.Active(), cs.ObjectiveStdDev())
	}
	fmt.Fprintf(out, "verified: %d session(s), %d record(s) replayed from %d byte(s) of log", len(rec.Sessions), replayed, rec.Bytes)
	if rec.SnapshotBytes > 0 {
		fmt.Fprintf(out, "; snapshot of %d byte(s) restored in %.4f s, log pass %.4f s",
			rec.SnapshotBytes, rec.SnapshotTime.Seconds(), (took - rec.SnapshotTime).Seconds())
	}
	if rec.TruncatedBytes > 0 {
		fmt.Fprintf(out, ", torn tail of %d byte(s) would be truncated on recovery", rec.TruncatedBytes)
	}
	fmt.Fprintln(out)
	return nil
}

func warnf(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "hmnwal: "+format+"\n", args...)
}
