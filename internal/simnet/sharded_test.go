package simnet

import (
	"runtime"
	"testing"
	"time"
)

func TestShardedZeroLookaheadPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewSharded(seed, 2, 0, nil) did not panic")
		}
	}()
	NewSharded(1, 2, 0, nil)
}

func TestShardedSingleShardIgnoresLookahead(t *testing.T) {
	// One shard has no cross-shard causality; zero lookahead is fine and
	// Run must not degenerate into zero-width windows.
	ss := NewSharded(1, 1, 0, nil)
	fired := 0
	ss.NewEnvOn(0, "a").After(3*time.Millisecond, func() { fired++ })
	ss.Run(10 * time.Millisecond)
	if fired != 1 {
		t.Fatalf("fired = %d, want 1", fired)
	}
	if ss.Now() != 10*time.Millisecond {
		t.Fatalf("Now = %v, want 10ms", ss.Now())
	}
}

func TestShardedEmptyWindowsSkipped(t *testing.T) {
	// Sparse events: the loop must jump between event times, not grind
	// through every lookahead-width window of silence.
	ss := NewSharded(1, 2, time.Millisecond, nil)
	e := ss.NewEnvOn(0, "a")
	fired := 0
	for i := 1; i <= 5; i++ {
		e.After(time.Duration(i)*time.Second, func() { fired++ })
	}
	ss.Run(10 * time.Second)
	if fired != 5 {
		t.Fatalf("fired = %d, want 5", fired)
	}
	if w := ss.ParallelStats().Windows; w > 10 {
		t.Fatalf("%d windows for 5 sparse events over 10s: empty windows not skipped", w)
	}
	if ss.Now() != 10*time.Second {
		t.Fatalf("Now = %v, want 10s", ss.Now())
	}
}

func TestShardedQuiescedMergeOrder(t *testing.T) {
	// Entries from both source shards into one destination must execute
	// in (timestamp, source shard, sequence) order regardless of enqueue
	// order across queues, when merged at a quiesced point.
	ss := NewSharded(1, 2, time.Millisecond, nil)
	var got []int
	rec := func(label int) (func(any), any) {
		return func(any) { got = append(got, label) }, nil
	}
	// Enqueued deliberately out of merge order.
	fn, arg := rec(3)
	ss.XSchedule(1, 0, 5*time.Millisecond, fn, arg) // (5ms, src1, seq0)
	fn, arg = rec(1)
	ss.XSchedule(0, 0, 5*time.Millisecond, fn, arg) // (5ms, src0, seq0)
	fn, arg = rec(0)
	ss.XSchedule(1, 0, 3*time.Millisecond, fn, arg) // (3ms, src1, seq1): earliest timestamp wins
	fn, arg = rec(2)
	ss.XSchedule(0, 0, 5*time.Millisecond, fn, arg) // (5ms, src0, seq1)
	ss.Run(10 * time.Millisecond)
	want := []int{0, 1, 2, 3}
	if len(got) != len(want) {
		t.Fatalf("executed %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("execution order %v, want %v", got, want)
		}
	}
}

func TestShardedPendingCountsExchangeQueues(t *testing.T) {
	ss := NewSharded(1, 2, time.Millisecond, nil)
	ss.NewEnvOn(0, "a").After(time.Millisecond, func() {})
	ss.XSchedule(0, 1, 2*time.Millisecond, func(any) {}, nil)
	if p := ss.Pending(); p != 2 {
		t.Fatalf("Pending = %d, want 2 (one heap event + one queued exchange)", p)
	}
	ss.Run(5 * time.Millisecond)
	if p := ss.Pending(); p != 0 {
		t.Fatalf("Pending after run = %d, want 0", p)
	}
	if ss.Steps() != 2 {
		t.Fatalf("Steps = %d, want 2", ss.Steps())
	}
}

func TestShardedDriverRunsQuiesced(t *testing.T) {
	// A driver callback must observe every shard clock aligned at its own
	// exact timestamp — the quiesced-driver contract that makes
	// cross-shard mutation (churn injection) safe.
	ss := NewSharded(1, 2, time.Millisecond, nil)
	e0 := ss.NewEnvOn(0, "a")
	e1 := ss.NewEnvOn(1, "b")
	var before, after int
	e0.After(2*time.Millisecond, func() { before++ })
	e1.After(7*time.Millisecond, func() { after++ })
	checked := false
	ss.After(5*time.Millisecond, func() {
		checked = true
		if ss.Now() != 5*time.Millisecond {
			t.Errorf("driver Now = %v, want 5ms", ss.Now())
		}
		for i := 0; i < ss.Shards(); i++ {
			if got := ss.Shard(i).Now(); got != 5*time.Millisecond {
				t.Errorf("shard %d Now = %v, want 5ms", i, got)
			}
		}
		if before != 1 || after != 0 {
			t.Errorf("driver saw before=%d after=%d, want 1, 0", before, after)
		}
	})
	ss.Run(10 * time.Millisecond)
	if !checked {
		t.Fatal("driver callback did not run")
	}
	if after != 1 {
		t.Fatal("post-driver shard event did not run")
	}
}

func TestShardedHaltStopsAtWindow(t *testing.T) {
	// A driver-context halt stops the Run at the driver event's own
	// timestamp: every shard is quiesced there.
	ss := NewSharded(1, 2, time.Millisecond, nil)
	e := ss.NewEnvOn(0, "a")
	fired := 0
	e.After(2*time.Millisecond, func() { fired++ })
	e.After(8*time.Millisecond, func() { fired++ })
	ss.After(5*time.Millisecond, ss.Halt)
	ss.Run(20 * time.Millisecond)
	if fired != 1 {
		t.Fatalf("fired = %d, want 1 (halt must stop the 8ms event)", fired)
	}
	if ss.Now() != 5*time.Millisecond {
		t.Fatalf("Now = %v, want halt point 5ms (a halted run must not jump to the horizon)", ss.Now())
	}
	// A later Run resumes where the halt left off.
	ss.Run(20 * time.Millisecond)
	if fired != 2 {
		t.Fatalf("fired after resume = %d, want 2", fired)
	}

	// A shard halting inside a single-window phase finishes the window
	// (its 20.8ms event runs) and stops the Run before the driver event
	// that closes it.
	ss.Shard(1).At(20500*time.Microsecond, ss.Shard(1).Halt)
	ss.Shard(1).At(20800*time.Microsecond, func() { fired++ })
	ss.After(time.Millisecond, func() { t.Error("driver event after a shard halt ran") })
	ss.Run(30 * time.Millisecond)
	if fired != 3 || ss.Now() != 21*time.Millisecond {
		t.Fatalf("fired = %d, Now = %v; want 3 at the 21ms window end", fired, ss.Now())
	}
}

// shardHaltRun drives a three-shard phase in which shard 0 halts through
// its own scheduler at 2.5ms (window 2 of a 1ms lattice based at 0), while
// shard 1 ticks every 300µs and pings shard 2 — so the other shards are
// free to run ahead of the halting one. With maxLag[0] = 3 the phase must
// stop after window C = 2-1+3 = 4, i.e. at 5ms: every tick before 5ms
// fires, none after. Shard 0's wide inbound lags would let it reach its
// own 9ms event early; only the cap keeps it from running.
func shardHaltRun(t *testing.T) (ticks, pings int, now time.Duration, st ParallelStats) {
	t.Helper()
	lag := [][]int{{1, 3, 2}, {6, 1, 1}, {6, 1, 1}}
	ss := NewSharded(5, 3, time.Millisecond, lag)
	ss.Shard(0).At(0, func() {})
	ss.Shard(0).At(2500*time.Microsecond, ss.Shard(0).Halt)
	ss.Shard(0).At(9*time.Millisecond, func() { t.Error("shard 0 event after the halt fired") })
	for at := 300 * time.Microsecond; at < 20*time.Millisecond; at += 300 * time.Microsecond {
		at := at
		ss.Shard(1).At(at, func() {
			ticks++
			ss.XSchedule(1, 2, at+time.Millisecond, func(any) { pings++ }, nil)
		})
	}
	ss.Run(20 * time.Millisecond)
	return ticks, pings, ss.Now(), ss.ParallelStats()
}

func TestShardedShardHaltStopsAtWindow(t *testing.T) {
	const call, maxLag, w = 2500 * time.Microsecond, 3, time.Millisecond
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	type res struct {
		ticks, pings int
		now          time.Duration
		st           ParallelStats
	}
	var got []res
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		ticks, pings, now, st := shardHaltRun(t)
		got = append(got, res{ticks, pings, now, st})
	}
	r := got[0]
	if r.now != 5*time.Millisecond || r.now > call+(maxLag+1)*w {
		t.Fatalf("Now = %v, want the end of window C at 5ms (≤ %v)", r.now, call+(maxLag+1)*w)
	}
	// Ticks at 0.3ms·i for i = 1..16 lie below 5ms; their pings arrive 1ms
	// later, so only those below 5ms (i ≤ 13) fire inside the phase.
	if r.ticks != 16 || r.pings != 13 {
		t.Fatalf("ticks=%d pings=%d, want 16 and 13: windows ≤ C must all run, none after", r.ticks, r.pings)
	}
	for i := 1; i < len(got); i++ {
		if got[i] != r {
			t.Fatalf("GOMAXPROCS run %d diverged: %+v vs %+v", i, got[i], r)
		}
	}
}

func TestShardedHaltFromShardEventPanics(t *testing.T) {
	// The engine cannot tell which shard called it, so an engine-level
	// Halt from a shard event is refused loudly rather than honoured at a
	// thread-timing-dependent point.
	ss := NewSharded(1, 2, time.Millisecond, nil)
	ss.Shard(1).At(time.Millisecond, ss.Halt)
	defer func() {
		if recover() == nil {
			t.Fatal("engine Halt from a shard event did not panic")
		}
	}()
	ss.Run(10 * time.Millisecond)
}

func TestShardedLookaheadViolationPanics(t *testing.T) {
	// An event exchanged with a timestamp inside the current window is a
	// causality violation; the engine must refuse it loudly, and the panic
	// must reach Run's caller even though it is raised on a shard
	// goroutine.
	ss := NewSharded(1, 2, time.Millisecond, nil)
	ss.Shard(0).At(0, func() {
		ss.XSchedule(0, 1, 0, func(any) {}, nil) // arrival in the past at merge
	})
	defer func() {
		if recover() == nil {
			t.Fatal("lookahead violation did not panic")
		}
	}()
	ss.Run(10 * time.Millisecond)
}

func TestShardedDeterministicReplay(t *testing.T) {
	// Two engines over the same seed must execute identical event
	// sequences, including cross-shard traffic driven by derived RNG
	// streams.
	run := func() (uint64, uint64, time.Duration) {
		ss := NewSharded(42, 4, time.Millisecond, nil)
		envs := make([]*NodeEnv, 4)
		for i := range envs {
			envs[i] = ss.NewEnvOn(i, "n")
		}
		var pingPong func(from, to int, at time.Duration)
		pingPong = func(from, to int, at time.Duration) {
			ss.XSchedule(from, to, at, func(any) {
				if at < 50*time.Millisecond {
					jitter := time.Duration(envs[to].Rand().Intn(1000)) * time.Microsecond
					pingPong(to, (to+1)%4, at+time.Millisecond+jitter)
				}
			}, nil)
		}
		ss.Shard(0).At(0, func() { pingPong(0, 1, 2*time.Millisecond) })
		ss.Run(100 * time.Millisecond)
		st := ss.ParallelStats()
		return ss.Steps(), st.CrossShard, ss.Now()
	}
	s1, x1, n1 := run()
	s2, x2, n2 := run()
	if s1 != s2 || x1 != x2 || n1 != n2 {
		t.Fatalf("replay diverged: (%d,%d,%v) vs (%d,%d,%v)", s1, x1, n1, s2, x2, n2)
	}
	if x1 == 0 {
		t.Fatal("scenario exercised no cross-shard traffic")
	}
}

func TestShardedRunParksWorkers(t *testing.T) {
	// Shard goroutines live only inside Run: a finished engine holds none,
	// and a second Run on the same engine spawns and joins its own (the
	// leak-free teardown contract).
	before := runtime.NumGoroutine()
	ss := NewSharded(1, 4, time.Millisecond, nil)
	for i := 0; i < 4; i++ {
		e := ss.NewEnvOn(i, "n")
		for j := 0; j < 8; j++ {
			e.After(time.Duration(j)*100*time.Microsecond, func() {})
		}
	}
	ss.Run(time.Second)
	waitNoGoroutinesAbove(t, before)
	for i := 0; i < 4; i++ {
		ss.Shard(i).At(ss.Now()+time.Duration(i+1)*100*time.Microsecond, func() {})
	}
	ss.Run(2 * time.Second)
	waitNoGoroutinesAbove(t, before)
}

func TestShardedSingleWindowPhase(t *testing.T) {
	// A driver event less than one lookahead after the phase start cuts a
	// phase of exactly one window. Both busy shards run in it through the
	// shard loop, and the event they exchange arrives after the driver
	// event, so it is flushed at the phase end and runs in a later Run.
	before := runtime.NumGoroutine()
	ss := NewSharded(1, 2, time.Millisecond, nil)
	var ran [2]bool
	delivered := false
	ss.Shard(0).At(time.Millisecond, func() {
		ran[0] = true
		ss.XSchedule(0, 1, 2*time.Millisecond, func(any) { delivered = true }, nil)
	})
	ss.Shard(1).At(1200*time.Microsecond, func() { ran[1] = true })
	ss.After(1500*time.Microsecond, func() {})
	ss.Run(1500 * time.Microsecond)
	if !ran[0] || !ran[1] {
		t.Fatalf("shard events ran = %v, want both", ran)
	}
	if st := ss.ParallelStats(); st.Windows != 1 || st.MaxBusy != 2 || st.CrossShard != 1 {
		t.Fatalf("stats %+v, want one window with two busy shards and one exchange", st)
	}
	if delivered || ss.Pending() != 1 {
		t.Fatalf("delivered = %v, Pending = %d; want the exchange waiting past the driver event", delivered, ss.Pending())
	}
	ss.Run(3 * time.Millisecond)
	if !delivered {
		t.Fatal("exchanged event never ran")
	}
	waitNoGoroutinesAbove(t, before)
}

func TestShardedSingleShardHaltStopsAtPhaseEnd(t *testing.T) {
	// One shard with zero lookahead: each phase is one window spanning the
	// stretch to the next driver event. A shard halt finishes that window
	// (its later events run) and stops the Run at the window end, before
	// the driver event that closes it.
	ss := NewSharded(1, 1, 0, nil)
	sh := ss.Shard(0)
	fired, driverRan := 0, false
	sh.At(2*time.Millisecond, sh.Halt)
	sh.At(3*time.Millisecond, func() { fired++ })
	sh.At(8*time.Millisecond, func() { fired++ })
	sh.At(15*time.Millisecond, func() { fired++ })
	ss.After(10*time.Millisecond, func() { driverRan = true })
	ss.Run(20 * time.Millisecond)
	if fired != 2 || driverRan || ss.Now() != 10*time.Millisecond {
		t.Fatalf("fired = %d, driver ran = %v, Now = %v; want 2, false at the 10ms window end", fired, driverRan, ss.Now())
	}
	// A later Run resumes where the halt left off.
	ss.Run(20 * time.Millisecond)
	if fired != 3 || !driverRan || ss.Now() != 20*time.Millisecond {
		t.Fatalf("after resume fired = %d, driver ran = %v, Now = %v; want 3, true at 20ms", fired, driverRan, ss.Now())
	}
}
