package simnet

import (
	"fmt"
	"sync/atomic"
	"time"
)

// Engine is the scheduler surface deployments and experiments drive: the
// serial Scheduler and the ShardedScheduler both implement it, so an overlay
// runs unchanged on either. Code that needs the concrete serial engine
// (tests poking At/Step) keeps using *Scheduler directly.
type Engine interface {
	// Now returns the current virtual time.
	Now() time.Duration
	// Steps returns the number of events executed so far.
	Steps() uint64
	// Pending returns the number of queued events (cross-shard queues
	// included).
	Pending() int
	// Run executes events up to and including virtual time until.
	Run(until time.Duration) uint64
	// Halt stops the current Run early. On the sharded engine it must be
	// called from driver context; a shard event halts through its own
	// shard's scheduler instead (see ShardedScheduler.Halt).
	Halt()
	// After schedules a driver-level callback at now+d; on the sharded
	// engine it runs with every shard quiesced (see ShardedScheduler.After).
	After(d time.Duration, fn func()) Event
	// NewEnv creates a node environment (on shard 0 for the sharded
	// engine; placement-aware callers use NewEnvOn).
	NewEnv(name string) *NodeEnv
}

var (
	_ Engine = (*Scheduler)(nil)
	_ Engine = (*ShardedScheduler)(nil)
)

// xentry is one cross-shard event in a per-shard-pair exchange queue.
type xentry struct {
	at  time.Duration
	seq uint64 // per-(src,dst) FIFO sequence: deterministic merge tie-break
	fn  func(any)
	arg any
	src int32
}

// ParallelStats instruments the window machinery. TotalEvents over
// CriticalEvents is the workload's achievable speedup bound: the critical
// path is the deepest chain of windows that had to wait on each other, so
// it bounds wall time regardless of core count.
type ParallelStats struct {
	// Windows counts shard execution windows (driver windows excluded).
	Windows uint64
	// BusyShardSum sums the per-window count of shards that had events.
	BusyShardSum uint64
	// MaxBusy is the largest number of concurrently busy shards seen.
	MaxBusy int
	// TotalEvents counts events executed inside shard windows.
	TotalEvents uint64
	// CriticalEvents is the parallel critical path in events (see
	// runPhase).
	CriticalEvents uint64
	// CrossShard counts events exchanged between shards.
	CrossShard uint64
}

// SpeedupBound returns TotalEvents/CriticalEvents — the speedup an ideal
// machine with one core per shard could reach on this workload, independent
// of the hardware the measurement ran on.
func (p ParallelStats) SpeedupBound() float64 {
	if p.CriticalEvents == 0 {
		return 1
	}
	return float64(p.TotalEvents) / float64(p.CriticalEvents)
}

// ShardedScheduler is the conservative parallel engine: it partitions the
// simulation into per-core shards, each an independent serial Scheduler, and
// runs them concurrently over a lattice of lookahead windows no wider than
// the minimum cross-shard delivery latency. An event created during window
// [T, T+W) for another shard therefore always lands at ≥ T+W — the classic
// Chandy–Misra–Bryant argument — so shards never need to roll back.
//
// Between driver events the shards run one window-pipelined phase
// (pipelined.go): each shard starts its next window as soon as its own
// inbound queues are sealed far enough, with no global barrier. Cross-shard
// events merge in (timestamp, source shard, sequence) order, and every
// shard runs on a serial scheduler with its own derived seed, so a
// fixed-seed run is bit-reproducible at any GOMAXPROCS — every scheduling
// decision is taken from event content alone, never from thread timing.
type ShardedScheduler struct {
	shards    []*Scheduler
	driver    *Scheduler
	lookahead time.Duration
	now       time.Duration
	halted    atomic.Bool
	// inShards is set while shard windows execute; Halt uses it to refuse
	// calls that could only have come from a shard event.
	inShards atomic.Bool
	// xseq is the per-pair FIFO sequence counter of the exchange queues
	// (pipe.pairs), indexed src*len(shards)+dst. Each counter is advanced
	// by exactly one shard goroutine at a time.
	xseq []uint64
	// merged is the flush scratch buffer.
	merged []xentry
	stat   ParallelStats
	pipe   pipeState
}

// NewSharded creates a sharded engine with the given number of shards,
// conservative lookahead and window-lag matrix. lag[src][dst] is how many
// whole lookahead windows the (src,dst) latency floor spans: it must be ≥ 1
// off the diagonal and satisfy lag·lookahead ≤ that floor
// (netmodel.ShardLagMatrix derives it); nil means one window for every
// pair. The lookahead must be positive when shards > 1: a zero window would
// admit cross-shard events into the running window, which is exactly the
// causality violation conservative PDES exists to prevent, so that
// configuration panics rather than silently corrupting determinism. Each
// shard's scheduler gets its own seed derived from the master seed,
// decorrelating per-shard RNG streams.
func NewSharded(seed int64, shards int, lookahead time.Duration, lag [][]int) *ShardedScheduler {
	if shards < 1 {
		panic(fmt.Sprintf("simnet: NewSharded with %d shards", shards))
	}
	if shards > 1 && lookahead <= 0 {
		panic("simnet: sharded engine requires positive lookahead (zero-latency cross-shard links cannot be windowed)")
	}
	ss := &ShardedScheduler{
		shards:    make([]*Scheduler, shards),
		driver:    NewScheduler(deriveSeed(seed, int64(shards))),
		lookahead: lookahead,
		xseq:      make([]uint64, shards*shards),
	}
	for i := range ss.shards {
		ss.shards[i] = NewScheduler(deriveSeed(seed, int64(i)))
	}
	ss.pipe.init(shards, lag)
	return ss
}

// deriveSeed decorrelates per-shard seeds from the master seed (SplitMix64
// finalizer, the same mix DeriveRand uses for per-node streams).
func deriveSeed(seed, index int64) int64 {
	z := uint64(seed) + 0x9e3779b97f4a7c15*uint64(index+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z)
}

// Shards returns the shard count.
func (ss *ShardedScheduler) Shards() int { return len(ss.shards) }

// Shard returns the i-th shard's serial scheduler. Transports use it to
// schedule shard-local deliveries and derive per-shard RNG streams.
func (ss *ShardedScheduler) Shard(i int) *Scheduler { return ss.shards[i] }

// ParallelStats returns a snapshot of the window instrumentation.
func (ss *ShardedScheduler) ParallelStats() ParallelStats { return ss.stat }

// Now implements Engine.
func (ss *ShardedScheduler) Now() time.Duration { return ss.now }

// Steps implements Engine: total events executed across shards and driver.
func (ss *ShardedScheduler) Steps() uint64 {
	t := ss.driver.Steps()
	for _, sh := range ss.shards {
		t += sh.Steps()
	}
	return t
}

// Pending implements Engine: live events across shards and driver plus
// cross-shard events still waiting in exchange queues.
func (ss *ShardedScheduler) Pending() int {
	p := ss.driver.Pending()
	for _, sh := range ss.shards {
		p += sh.Pending()
	}
	for i := range ss.pipe.pairs {
		for _, b := range ss.pipe.pairs[i].buckets {
			p += len(b.entries)
		}
	}
	return p
}

// Halt implements Engine for driver callbacks: the Run stops once the
// current driver event returns. A shard event cannot name itself through
// the engine, so it halts through its own shard's scheduler
// (NodeEnv.Scheduler().Halt()); the engine then stops at a window decided
// by event content alone: the end of the furthest window any shard could
// already have reached (see pipeState.last). Shards mid-window always
// finish the window; anything finer would make the stop point depend on
// thread timing and break replay. Calling this method from a shard event
// panics.
func (ss *ShardedScheduler) Halt() {
	if ss.inShards.Load() {
		panic("simnet: ShardedScheduler.Halt called from a shard event; halt through the shard's own scheduler")
	}
	ss.halted.Store(true)
}

// collectHalts folds halts requested through shard schedulers into the
// engine's flag. Quiesced points only; clearing the flags keeps a stale
// request from leaking into the next Run.
func (ss *ShardedScheduler) collectHalts() {
	for _, sh := range ss.shards {
		if sh.halted {
			sh.halted = false
			ss.halted.Store(true)
		}
	}
}

// After implements Engine. Driver callbacks — churn injection, experiment
// sampling, query launchers — may touch nodes on any shard, so they run on a
// dedicated serial scheduler at their exact timestamp with every shard
// quiesced at that time: Run splits its phases at driver event times.
func (ss *ShardedScheduler) After(d time.Duration, fn func()) Event {
	return ss.driver.After(d, fn)
}

// NewEnv implements Engine, placing the env on shard 0. Placement-aware
// deployments use NewEnvOn so a node's timers run on the shard that owns
// its site.
func (ss *ShardedScheduler) NewEnv(name string) *NodeEnv { return ss.NewEnvOn(0, name) }

// NewEnvOn creates a node environment pinned to the given shard. All of the
// node's protocol callbacks execute inside that shard's windows, and its
// pending-callback ledger (PendingFor leak gates) lives on that shard's
// scheduler. Envs must be created in a fixed global order for replay
// determinism, as with the serial engine.
func (ss *ShardedScheduler) NewEnvOn(shard int, name string) *NodeEnv {
	return ss.shards[shard].NewEnv(name)
}

// XSchedule enqueues fn(arg) for the dst shard at absolute time at. It must
// be called from the src shard's execution context during a window, or from
// the driver/build context while shards are quiesced. Either way the entry
// goes to the (src,dst) exchange queue — inside a phase into the bucket of
// the sender's current window — and reaches dst's heap in (at, src, seq)
// order, drained by the receiver during the phase or by the next flush.
// The conservative contract requires at to be no earlier than the end of
// the sender's window plus the pair's lag — violations panic when the entry
// is merged.
func (ss *ShardedScheduler) XSchedule(src, dst int, at time.Duration, fn func(any), arg any) {
	// Each pair row is written by exactly one shard goroutine, so the seq
	// counter needs no lock.
	q := src*len(ss.shards) + dst
	e := xentry{at: at, seq: ss.xseq[q], fn: fn, arg: arg, src: int32(src)}
	ss.xseq[q]++
	p := &ss.pipe
	w := int64(-1) // quiesced: the next flush drains the queue whole
	if p.inPhase {
		if src == dst {
			ss.shards[dst].AtCall(at, fn, arg)
			return
		}
		w = p.curWin[src]
	}
	p.enqueue(q, w, e)
}

// flush drains every exchange queue into its destination shard's heap: the
// quiesced entries at the top of each Run step, and a phase's leftovers at
// its end. The per-destination batch is sorted by (timestamp, source shard,
// sequence) before insertion so the destination's heap order — and
// therefore replay — never depends on which goroutine filled which queue
// first. An entry earlier than the destination's clock broke the lookahead
// contract and panics.
func (ss *ShardedScheduler) flush() {
	n := len(ss.shards)
	for dst, sh := range ss.shards {
		batch := ss.merged[:0]
		for src := 0; src < n; src++ {
			pr := &ss.pipe.pairs[src*n+dst]
			for i := range pr.buckets {
				batch = append(batch, pr.buckets[i].entries...)
				pr.buckets[i] = pipeBucket{}
			}
			pr.buckets = pr.buckets[:0]
		}
		sortXEntries(batch)
		for i := range batch {
			e := &batch[i]
			if e.at < sh.now {
				panic(fmt.Sprintf("simnet: cross-shard event at %v violates lookahead window ending %v", e.at, sh.now))
			}
			sh.AtCall(e.at, e.fn, e.arg)
			*e = xentry{} // release fn/arg references
		}
		ss.stat.CrossShard += uint64(len(batch))
		ss.merged = batch[:0]
	}
}

// nextTime returns the earliest live event time across shards and driver.
func (ss *ShardedScheduler) nextTime() (time.Duration, bool) {
	best, ok := ss.driver.nextEventAt()
	for _, sh := range ss.shards {
		if t, h := sh.nextEventAt(); h && (!ok || t < best) {
			best, ok = t, true
		}
	}
	return best, ok
}

// setTime aligns every clock — engine, driver, shards — at a quiesced point.
// Only called with no live event earlier than t.
func (ss *ShardedScheduler) setTime(t time.Duration) {
	ss.now = t
	ss.driver.now = t
	for _, sh := range ss.shards {
		sh.now = t
	}
}

// Run implements Engine: execute events up to and including until. Driver
// events run at their exact timestamp with every shard quiesced — they may
// touch any node — so the loop alternates driver windows with shard phases
// spanning the whole stretch of virtual time to the next driver event or
// the horizon. Each phase starts at an actual event time, so empty
// stretches of virtual time are skipped in one step.
func (ss *ShardedScheduler) Run(until time.Duration) uint64 {
	start := ss.Steps()
	ss.halted.Store(false)
	for _, sh := range ss.shards {
		sh.halted = false
	}
	horizon := until + 1 // exclusive bound admitting events at exactly until
	for !ss.halted.Load() {
		ss.flush()
		t, ok := ss.nextTime()
		if !ok || t > until {
			break
		}
		end := horizon
		if dt, ok := ss.driver.nextEventAt(); ok && dt == t {
			// No shard has an event before t, so advancing their clocks
			// is safe.
			ss.setTime(t)
			ss.driver.runWindow(t + 1)
			ss.collectHalts()
			continue
		} else if ok && dt < end {
			end = dt
		}
		ss.runPhase(t, end)
	}
	if !ss.halted.Load() {
		ss.setTime(until)
	}
	return ss.Steps() - start
}
