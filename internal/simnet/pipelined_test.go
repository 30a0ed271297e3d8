package simnet

import (
	"runtime"
	"testing"
	"time"
)

// pipePingPong drives the same RNG-jittered cross-shard cascade as
// TestShardedDeterministicReplay and returns an order-sensitive fingerprint
// of the execution: determinism means the exact sequence is invariant, not
// just the totals.
func pipePingPong(t *testing.T) (uint64, uint64, uint64) {
	t.Helper()
	ss := NewSharded(42, 4, time.Millisecond, nil)
	envs := make([]*NodeEnv, 4)
	for i := range envs {
		envs[i] = ss.NewEnvOn(i, "n")
	}
	// hashes[i] is only ever touched by shard i's goroutine (events run on
	// their destination shard), so the per-shard sequences are exact; the
	// cross-shard fold below is in fixed index order.
	var hashes [4]uint64
	var pingPong func(from, to int, at time.Duration)
	pingPong = func(from, to int, at time.Duration) {
		ss.XSchedule(from, to, at, func(any) {
			hashes[to] = (hashes[to] ^ (uint64(to)<<32 ^ uint64(at))) * 1099511628211
			if at < 50*time.Millisecond {
				jitter := time.Duration(envs[to].Rand().Intn(1000)) * time.Microsecond
				pingPong(to, (to+1)%4, at+time.Millisecond+jitter)
			}
		}, nil)
	}
	ss.Shard(0).At(0, func() { pingPong(0, 1, 2*time.Millisecond) })
	ss.Run(100 * time.Millisecond)
	if ss.Now() != 100*time.Millisecond {
		t.Fatalf("Now = %v, want 100ms", ss.Now())
	}
	hash := uint64(14695981039346656037)
	for _, h := range hashes {
		hash = (hash ^ h) * 1099511628211
	}
	return ss.Steps(), ss.ParallelStats().CrossShard, hash
}

func TestPipelinedDeterministicReplay(t *testing.T) {
	s1, x1, h1 := pipePingPong(t)
	s2, x2, h2 := pipePingPong(t)
	if s1 != s2 || x1 != x2 || h1 != h2 {
		t.Fatalf("pipelined replay diverged: (%d,%d,%x) vs (%d,%d,%x)", s1, x1, h1, s2, x2, h2)
	}
	if x1 == 0 {
		t.Fatal("scenario exercised no cross-shard traffic")
	}
}

func TestPipelinedGOMAXPROCSInvariant(t *testing.T) {
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	type res struct {
		s, x, h uint64
	}
	var got []res
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		s, x, h := pipePingPong(t)
		got = append(got, res{s, x, h})
	}
	for i := 1; i < len(got); i++ {
		if got[i] != got[0] {
			t.Fatalf("GOMAXPROCS run %d diverged: %+v vs %+v", i, got[i], got[0])
		}
	}
}

func TestPipelinedMatchesSerialEventContent(t *testing.T) {
	// A deterministic (RNG-free) workload must execute the identical event
	// multiset on the sharded engine and on one serial heap: windows and
	// pipelining change how virtual time is cut up, never which events run
	// or when. The fingerprint is order-insensitive (a commutative sum)
	// because equal-timestamp ties across engines may legitimately order
	// differently.
	run := func(at func(shard int, when time.Duration, fn func()), xs func(src, dst int, when time.Duration, fn func()), run func()) uint64 {
		// sums[i] is only touched by events executing on shard i; the
		// combine below is commutative, so it is engine-independent.
		var sums [3]uint64
		var cascade func(shard int, when time.Duration)
		cascade = func(shard int, when time.Duration) {
			dst := (shard + 1) % 3
			xs(shard, dst, when, func() {
				sums[dst] += uint64(when) * uint64(shard*7+13)
				if when < 40*time.Millisecond {
					cascade(dst, when+1500*time.Microsecond)
				}
			})
		}
		for i := 0; i < 3; i++ {
			i := i
			at(i, 0, func() { cascade(i, 2*time.Millisecond) })
			for j := 1; j <= 20; j++ {
				when := time.Duration(j) * 2 * time.Millisecond // ties with cascade arrivals
				at(i, when, func() { sums[i] += uint64(when) * uint64(i+29) })
			}
		}
		run()
		return sums[0] + sums[1] + sums[2]
	}
	ss := NewSharded(7, 3, time.Millisecond, nil)
	psum := run(
		func(shard int, when time.Duration, fn func()) { ss.Shard(shard).At(when, fn) },
		func(src, dst int, when time.Duration, fn func()) {
			ss.XSchedule(src, dst, when, func(any) { fn() }, nil)
		},
		func() { ss.Run(60 * time.Millisecond) })
	serial := NewScheduler(7)
	ssum := run(
		func(_ int, when time.Duration, fn func()) { serial.At(when, fn) },
		func(_, _ int, when time.Duration, fn func()) { serial.At(when, fn) },
		func() { serial.Run(60 * time.Millisecond) })
	if ps, s := ss.Steps(), serial.Steps(); ps != s || psum != ssum {
		t.Fatalf("sharded content diverged from serial: steps %d vs %d, sum %x vs %x", ps, s, psum, ssum)
	}
	if ss.ParallelStats().CrossShard == 0 {
		t.Fatal("scenario exercised no cross-shard traffic")
	}
}

func TestPipelinedSparseEventsJumpWindows(t *testing.T) {
	// One busy shard, one idle shard, events seconds apart with a 1ms
	// window: the idle-jump protocol must fast-forward the lattice instead
	// of seal-ratcheting through thousands of empty windows per event.
	ss := NewSharded(1, 2, time.Millisecond, nil)
	e := ss.NewEnvOn(0, "a")
	fired := 0
	for i := 1; i <= 5; i++ {
		e.After(time.Duration(i)*time.Second, func() { fired++ })
	}
	done := make(chan struct{})
	go func() {
		ss.Run(10 * time.Second)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("sparse pipelined run did not finish: idle fast-forward broken")
	}
	if fired != 5 {
		t.Fatalf("fired = %d, want 5", fired)
	}
	if w := ss.ParallelStats().Windows; w > 10 {
		t.Fatalf("%d windows for 5 sparse events: empty windows executed", w)
	}
	if ss.Now() != 10*time.Second {
		t.Fatalf("Now = %v, want 10s", ss.Now())
	}
}

func TestPipelinedPerPairLagLoosensCriticalPath(t *testing.T) {
	// Two shards exchange strictly alternating messages with a 5-window
	// latency. Were every window a global barrier, each would hold one
	// busy shard, so CriticalEvents would equal TotalEvents (bound 1.0).
	// With lag 5 the reply chain still serialises — but each shard's
	// *local* follow-up work overlaps the flight time, so the pipelined
	// critical path must come out strictly shorter than the total.
	ss := NewSharded(3, 2, time.Millisecond, [][]int{{1, 5}, {5, 1}})
	for i := 0; i < 2; i++ {
		ss.NewEnvOn(i, "n")
	}
	var volley func(from int, at time.Duration)
	volley = func(from int, at time.Duration) {
		to := 1 - from
		ss.XSchedule(from, to, at, func(any) {
			// Local follow-up burst on the receiving shard: work that can
			// overlap the next message's flight.
			for j := 1; j <= 4; j++ {
				ss.shards[to].At(at+time.Duration(j)*300*time.Microsecond, func() {})
			}
			if at < 80*time.Millisecond {
				volley(to, at+5*time.Millisecond)
			}
		}, nil)
	}
	ss.Shard(0).At(0, func() { volley(0, 5*time.Millisecond) })
	ss.Run(120 * time.Millisecond)
	st := ss.ParallelStats()
	if st.CrossShard == 0 || st.TotalEvents == 0 {
		t.Fatalf("degenerate run: %+v", st)
	}
	if st.CriticalEvents >= st.TotalEvents {
		t.Fatalf("CriticalEvents %d ≥ TotalEvents %d: per-pair lag did not overlap local work with flight time", st.CriticalEvents, st.TotalEvents)
	}
}

func TestPipelinedLeftoverCrossPhaseDelivery(t *testing.T) {
	// A cross-shard event emitted during a phase but arriving beyond its
	// end must survive the final drain and fire in a later Run.
	ss := NewSharded(9, 2, time.Millisecond, nil)
	fired := false
	ss.Shard(0).At(2*time.Millisecond, func() {
		ss.XSchedule(0, 1, 50*time.Millisecond, func(any) { fired = true }, nil)
	})
	ss.Run(10 * time.Millisecond)
	if fired {
		t.Fatal("future event fired inside the wrong phase")
	}
	if p := ss.Pending(); p != 1 {
		t.Fatalf("Pending = %d, want 1 leftover", p)
	}
	ss.Run(60 * time.Millisecond)
	if !fired {
		t.Fatal("leftover cross-phase event never fired")
	}
}

func TestPipelinedDriverQuiescesShards(t *testing.T) {
	// Driver callbacks split pipelined phases even when the shards could
	// otherwise run several windows apart: every shard clock is aligned at
	// the driver timestamp.
	ss := NewSharded(1, 2, time.Millisecond, [][]int{{1, 3}, {3, 1}})
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

func TestPipelinedSingleShardIsNoop(t *testing.T) {
	// One shard has no lattice to pipeline: a Run is one window however
	// far apart its events lie, with or without a lag matrix.
	ss := NewSharded(1, 1, 0, [][]int{{1}})
	fired := 0
	e := ss.NewEnvOn(0, "a")
	e.After(3*time.Millisecond, func() { fired++ })
	e.After(7*time.Millisecond, func() { fired++ })
	ss.Run(10 * time.Millisecond)
	if fired != 2 {
		t.Fatalf("fired = %d, want 2", fired)
	}
	if w := ss.ParallelStats().Windows; w != 1 {
		t.Fatalf("Windows = %d, want 1", w)
	}
}

func TestPipelinedRunLeavesNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	ss := NewSharded(1, 4, time.Millisecond, nil)
	for i := 0; i < 4; i++ {
		e := ss.NewEnvOn(i, "n")
		for j := 0; j < 8; j++ {
			e.After(time.Duration(j+1)*700*time.Microsecond, func() {})
		}
	}
	ss.Run(time.Second)
	waitNoGoroutinesAbove(t, before)
}

// waitNoGoroutinesAbove fails the test unless the goroutine count drops back
// to before within two seconds: the leak-free teardown contract.
func waitNoGoroutinesAbove(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		runtime.Gosched()
		time.Sleep(time.Millisecond)
	}
	if got := runtime.NumGoroutine(); got > before {
		t.Fatalf("%d goroutines after Run, %d before: shard goroutines leaked", got, before)
	}
}
