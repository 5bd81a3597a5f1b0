package exp

import (
	"bytes"
	"reflect"
	"sync/atomic"
	"testing"
)

func TestForEachIndexedCoversAllIndices(t *testing.T) {
	for _, workers := range []int{0, 1, 3, 16} {
		n := 37
		var hits [37]int32
		forEachIndexed(n, workers, func(i int) { atomic.AddInt32(&hits[i], 1) })
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, h)
			}
		}
	}
	// n == 0 must not deadlock or call fn.
	forEachIndexed(0, 4, func(int) { t.Fatal("fn called with n == 0") })
}

// TestRunGapParallelMatchesSerial pins the harness contract: the gap
// experiment's aggregate is identical for any worker-pool width, because
// instances are seeded by index and merged in index order.
func TestRunGapParallelMatchesSerial(t *testing.T) {
	cfg := GapConfig{Instances: 6, Hosts: 3, Guests: 5, Seed: 2, Workers: 1}
	serial := RunGap(cfg)
	cfg.Workers = 8
	parallel := RunGap(cfg)
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatalf("worker count changed the gap result:\nserial   %+v\nparallel %+v", serial, parallel)
	}
	if serial.String() != parallel.String() {
		t.Fatal("worker count changed the rendered gap report")
	}
}

// TestRunReservationsParallelMatchesSerial pins the same contract for the
// bandwidth-reservation ablation, down to the rendered report bytes.
func TestRunReservationsParallelMatchesSerial(t *testing.T) {
	cfg := ReservationConfig{Instances: 3, Hosts: 12, Guests: 40, Seed: 3, Workers: 1}
	serial := RunReservations(cfg)
	cfg.Workers = 8
	parallel := RunReservations(cfg)
	if serial != parallel {
		t.Fatalf("worker count changed the reservation result:\nserial   %+v\nparallel %+v", serial, parallel)
	}
}

// TestRunSweepParallelJSONByteIdentical asserts the strongest form of the
// harness guarantee: the full serialized sweep output — every run, every
// metric except wall-clock timings — is byte-identical between a serial
// and a saturated pool. (MapSeconds and the stage times are wall time and
// so excluded by zeroing before encoding.)
func TestRunSweepParallelJSONByteIdentical(t *testing.T) {
	cfg := smallConfig()
	cfg.Reps = 2
	render := func(workers int) []byte {
		cfg.Workers = workers
		res := RunSweep(cfg)
		for i := range res.Runs {
			res.Runs[i].MapSeconds = 0
			st := &res.Runs[i].Stages
			st.HostingSeconds, st.MigrationSeconds, st.NetworkingSeconds = 0, 0, 0
		}
		var buf bytes.Buffer
		if err := res.JSON().Write(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	if a, b := render(1), render(8); !bytes.Equal(a, b) {
		t.Fatal("serial and parallel sweeps serialized differently")
	}
}
