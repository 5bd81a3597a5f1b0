package rebalance

import (
	"sync"
	"time"

	"repro/internal/core"
)

// Committer is the slice of core.Session the scheduler needs: a planning
// snapshot to score candidates on, and the migrate commit funnel to
// submit accepted plans through. *core.Session satisfies it.
type Committer interface {
	PlanSnapshot() core.PlanView
	MigrateGuests(moves []core.GuestMove) (*core.MigrateResult, error)
}

// Hooks observe the scheduler. All fields are optional; callbacks run on
// the scheduler goroutine (or the RunOnce caller), outside its lock.
type Hooks struct {
	// OnRound fires after every planning round with the number of units
	// proposed and the round's wall time.
	OnRound func(units int, elapsed float64)
	// OnCommit fires per unit submission: the unit, the commit result
	// (nil on error) and the error (nil on success).
	OnCommit func(u Unit, res *core.MigrateResult, err error)
	// AfterRound runs after a round that committed at least one unit —
	// hmnd uses it to force the WAL's group-commit barrier so a crash
	// immediately after a round loses nothing acknowledged.
	AfterRound func() error
	// Logf receives diagnostic messages.
	Logf func(format string, args ...any)
}

// Scheduler runs the rebalancing loop for one session: every interval it
// takes a plan snapshot, plans up to maxMoves guest moves, and submits
// each unit through the committer. A unit the live state has overtaken
// (the cluster changed since the snapshot) is dropped — the next round
// plans against fresh residuals anyway — so the loop never retries
// against admissions.
type Scheduler struct {
	committer Committer
	interval  time.Duration
	maxMoves  int
	hooks     Hooks

	mu      sync.Mutex
	running bool          //hmn:guardedby mu
	stop    chan struct{} //hmn:guardedby mu
	done    chan struct{} //hmn:guardedby mu
}

// New returns a stopped scheduler. interval is the period between
// planning rounds (<= 0: no background loop, rounds run only through
// RunOnce); maxMoves caps guest-level moves per round (<= 0: unbounded).
func New(c Committer, interval time.Duration, maxMoves int, hooks Hooks) *Scheduler {
	return &Scheduler{committer: c, interval: interval, maxMoves: maxMoves, hooks: hooks}
}

// Start launches the background loop. It is a no-op if already running
// or if the scheduler has no interval.
func (s *Scheduler) Start() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.running || s.interval <= 0 {
		return
	}
	s.running = true
	s.stop = make(chan struct{})
	s.done = make(chan struct{})
	go s.loop(s.stop, s.done)
}

// Stop terminates the background loop and waits for it to exit. It is a
// no-op if not running.
func (s *Scheduler) Stop() {
	s.mu.Lock()
	if !s.running {
		s.mu.Unlock()
		return
	}
	s.running = false
	stop, done := s.stop, s.done
	s.mu.Unlock()
	close(stop)
	<-done
}

// loop is the background ticker. The scheduler deliberately ticks at a
// fixed interval rather than planning continuously: a round against a
// quiescent session proposes nothing and costs one snapshot.
func (s *Scheduler) loop(stop, done chan struct{}) {
	defer close(done)
	ticker := time.NewTicker(s.interval) //hmn:wallclock
	defer ticker.Stop()
	for {
		select {
		case <-stop:
			return
		case <-ticker.C:
			s.RunOnce()
		}
	}
}

// RunOnce executes one planning round synchronously: snapshot, plan,
// submit each unit in headroom order. It returns the number of guest
// moves committed. Safe to call concurrently with the background loop:
// planning runs off-lock on each round's own snapshot, and the commits
// serialize through the session's lock, each a whole MigrateGuests. It
// is what the one-shot POST /v1/sessions/{sid}/rebalance endpoint calls.
func (s *Scheduler) RunOnce() int {
	start := time.Now() //hmn:wallclock
	view := s.committer.PlanSnapshot()
	units := Plan(view, s.maxMoves)
	if s.hooks.OnRound != nil {
		s.hooks.OnRound(len(units), time.Since(start).Seconds()) //hmn:wallclock
	}
	if len(units) == 0 {
		return 0
	}

	committed := 0
	for _, u := range units {
		res, err := s.committer.MigrateGuests(u.Moves)
		if s.hooks.OnCommit != nil {
			s.hooks.OnCommit(u, res, err)
		}
		if err != nil {
			// The plan was drawn on a snapshot; by submission the live
			// state may have moved on (concurrent admission, release, or
			// an earlier unit shifting residuals). Dropping the unit is
			// correct: the next round replans from fresh state.
			if s.hooks.Logf != nil {
				s.hooks.Logf("rebalance: unit dropped: %v", err)
			}
			continue
		}
		committed += len(res.Moves)
	}
	if committed > 0 && s.hooks.AfterRound != nil {
		if err := s.hooks.AfterRound(); err != nil && s.hooks.Logf != nil {
			s.hooks.Logf("rebalance: after-round hook: %v", err)
		}
	}
	return committed
}
