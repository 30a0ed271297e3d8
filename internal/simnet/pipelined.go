package simnet

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Window-pipelined phases of the sharded engine.
//
// A phase covers the stretch of virtual time between two driver events (or
// the horizon) as a lattice of lookahead windows, with no global barrier
// between them. A phase no longer than one lookahead, or any phase of a
// one-shard engine (which has no cross-shard causality to protect), is a
// lattice of exactly one window spanning the whole phase; it runs through
// the same shard loop. Cross-shard events travel through per-(src,dst)
// exchange queues bucketed by the sender's window; a sender "seals" a
// window when it finishes executing it, and a receiver may execute its
// window T as soon as every inbound queue is sealed far enough —
// specifically up to T - lag(src,dst), where the lag matrix counts how many
// whole windows the (src,dst) latency floor spans. Shards on distant site
// pairs therefore run several windows apart without ever waiting on each
// other, which both overlaps wall time and loosens the critical-path
// speedup bound that a global barrier would cap at the burst-alignment
// limit.
//
// Determinism: every execution and every queue drain below is decided from
// event content (timestamps, window indices, sealed watermarks), never from
// thread timing. Which windows a shard executes, which bucket entries it
// drains before each window, and the (at, src, seq) order it inserts them
// in are all invariant across goroutine interleavings, so a fixed-seed run
// is bit-reproducible at any GOMAXPROCS.

// pipeBucket holds the cross-shard events one shard emitted toward another
// during one of its execution windows. Buckets in a pair queue are strictly
// increasing in window index; a bucket is immutable once its window is
// sealed by the sender.
type pipeBucket struct {
	window  int64
	minAt   time.Duration
	entries []xentry
}

// pipePair is the (src,dst) exchange queue. The mutex serialises the
// sender's appends against the receiver's peeks and drains; it is held only
// for slice bookkeeping, never across event execution.
type pipePair struct {
	mu      sync.Mutex
	buckets []pipeBucket
}

// fpoint is one point of a shard's critical-path history within a phase:
// after executing window win, the shard's earliest possible completion is f
// events deep. See pipeRunWindow for the recurrence.
type fpoint struct {
	win int64
	f   uint64
}

// pipeState carries the per-phase control state of the sharded engine.
type pipeState struct {
	// lag[src][dst] is how many whole lookahead windows the (src,dst)
	// latency floor spans (≥ 1): an event emitted during sender window w
	// arrives no earlier than window w+lag, so the receiver may run window
	// T once sealed[src] ≥ T-lag[src][dst] for every src. maxLag[s] is the
	// largest lag out of s, at least 1 (the halting window itself).
	lag    [][]int32
	maxLag []int64
	// pairs are the (src,dst) exchange queues, indexed src*n+dst. Outside
	// a phase they hold the quiesced (driver/build context) entries, all
	// in window -1, until the next flush.
	pairs []pipePair
	// sealed[s] is the highest window index shard s has finished (or
	// promised to stay silent through); -1 at phase start. Written under
	// pmu, read locklessly — it only ever grows, so a stale read is
	// conservative.
	sealed []atomic.Int64
	// curWin[s] is the window shard s is currently executing; only the
	// owning goroutine touches it (XSchedule runs on that goroutine).
	curWin []int64

	// Phase extent, written by the coordinator before shard goroutines
	// spawn: the window lattice is [base + i·w, base + (i+1)·w) for
	// i ∈ [0, k); end clips the last window.
	base time.Duration
	end  time.Duration
	w    time.Duration
	k    int64

	// inPhase makes XSchedule bucket entries by the sender's current window
	// (and run same-shard ones directly) while shard goroutines run; the
	// spawn/join edges order it against their reads.
	inPhase bool

	// last is the highest window the phase may execute: k-1 until a shard
	// halts, then the minimum over halts of the furthest window any shard
	// could have reached when the halt was requested. Written under pmu
	// before the halting window's seal, and read by the shard loops after
	// their sealed loads, so a shard that sees the seal sees the cap.
	last atomic.Int64

	// Everything below is guarded by pmu.
	pmu  sync.Mutex
	cond *sync.Cond
	// ver counts content-publishing events (execution seals). A shard's
	// stuck registration is valid only if ver is unchanged since before
	// its peek, which makes the all-stuck snapshot consistent.
	ver uint64
	// stuck/nextw/liveStuck implement the idle-jump protocol: a shard
	// that cannot execute registers the window of its earliest pending
	// event (k as "none"); when every live shard is registered the
	// all-stuck snapshot is consistent and the phase fast-forwards every
	// seal to min(nextw)-1 in one step instead of ratcheting.
	stuck     []bool
	nextw     []int64
	liveStuck int
	exited    int
	// halted records that a shard halted during the phase; failed holds
	// the first panic a shard goroutine raised. runPhase re-raises it on
	// Run's caller, where a lookahead violation must surface.
	halted bool
	failed any
	// hist[s] is shard s's critical-path history; busy counts executing
	// shards per window index; total/cross accumulate phase stats.
	hist  [][]fpoint
	busy  map[int64]int
	total uint64
	cross uint64
	// batch[s] is shard s's private drain scratch buffer.
	batch [][]xentry
}

// init sizes the phase state for n shards and validates the lag matrix
// (nil: one window for every pair).
func (p *pipeState) init(n int, lag [][]int) {
	if lag != nil && len(lag) != n {
		panic(fmt.Sprintf("simnet: lag matrix is %d×?, want %d×%d", len(lag), n, n))
	}
	*p = pipeState{
		lag:    make([][]int32, n),
		maxLag: make([]int64, n),
		pairs:  make([]pipePair, n*n),
		sealed: make([]atomic.Int64, n),
		curWin: make([]int64, n),
		stuck:  make([]bool, n),
		nextw:  make([]int64, n),
		hist:   make([][]fpoint, n),
		busy:   make(map[int64]int),
		batch:  make([][]xentry, n),
	}
	for s := range p.lag {
		if lag != nil && len(lag[s]) != n {
			panic(fmt.Sprintf("simnet: lag matrix row %d has %d entries, want %d", s, len(lag[s]), n))
		}
		p.lag[s] = make([]int32, n)
		p.maxLag[s] = 1
		for d := range p.lag[s] {
			l := 1
			if lag != nil {
				l = lag[s][d]
			}
			if s != d && l < 1 {
				panic(fmt.Sprintf("simnet: lag[%d][%d] = %d, want ≥ 1", s, d, l))
			}
			if l < 1 {
				l = 1
			}
			p.lag[s][d] = int32(l)
			if s != d && int64(l) > p.maxLag[s] {
				p.maxLag[s] = int64(l)
			}
		}
	}
	p.cond = sync.NewCond(&p.pmu)
}

// enqueue appends e to pair q's bucket for sender window w.
func (p *pipeState) enqueue(q int, w int64, e xentry) {
	pr := &p.pairs[q]
	pr.mu.Lock()
	if k := len(pr.buckets); k > 0 && pr.buckets[k-1].window == w {
		b := &pr.buckets[k-1]
		if e.at < b.minAt {
			b.minAt = e.at
		}
		b.entries = append(b.entries, e)
	} else {
		pr.buckets = append(pr.buckets, pipeBucket{window: w, minAt: e.at, entries: []xentry{e}})
	}
	pr.mu.Unlock()
}

// runPhase executes every event in [base, end) across all shards with
// per-window sealing instead of a barrier, one goroutine per shard.
//
// A shard halts the phase by calling its own scheduler's Halt. Say shard s
// does so while it runs window h: until s seals h, sealed[s] ≤ h-1, so no
// other shard can have started a window past h-1 + maxLag[s], and s itself
// finishes h, so C = h-1 + maxLag[s] with maxLag[s] ≥ 1. The phase then
// runs every event-bearing window ≤ C and no later one (the minimum C over
// all halts), and its clocks stop at the end of window C — a stop point
// fixed by event content, identical at any GOMAXPROCS.
func (ss *ShardedScheduler) runPhase(base, end time.Duration) {
	n := len(ss.shards)
	w, k := end-base, int64(1)
	if n > 1 && w > ss.lookahead {
		w = ss.lookahead
		k = int64((end - base + w - 1) / w)
	}
	p := &ss.pipe
	p.base, p.end, p.w, p.k = base, end, w, k
	p.last.Store(k - 1)
	for s := 0; s < n; s++ {
		p.sealed[s].Store(-1)
		p.curWin[s] = -1
		p.stuck[s] = false
		p.nextw[s] = k
		p.hist[s] = p.hist[s][:0]
	}
	for win := range p.busy {
		delete(p.busy, win)
	}
	p.ver, p.liveStuck, p.exited = 0, 0, 0
	p.halted, p.failed = false, nil
	p.total, p.cross = 0, 0
	p.inPhase = true
	ss.inShards.Store(true)
	var wg sync.WaitGroup
	for s := 0; s < n; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					p.pmu.Lock()
					if p.failed == nil {
						p.failed = r
					}
					p.cond.Broadcast()
					p.pmu.Unlock()
				}
			}()
			ss.pipeShardLoop(s)
		}(s)
	}
	wg.Wait()
	ss.inShards.Store(false)
	p.inPhase = false
	if p.failed != nil {
		panic(p.failed)
	}
	if p.halted {
		ss.halted.Store(true)
		if e := base + time.Duration(p.last.Load()+1)*w; e < end {
			end = e
		}
	}

	// Advance every clock to the phase end, then flush leftover bucket
	// entries into their destination heaps. Every leftover arrives at or
	// after end: an entry sealed into a bucket that could arrive earlier
	// would have been peeked (contradicting its receiver's exit) or
	// drained by the watermark of the receiver's last window.
	ss.now = end
	for _, sh := range ss.shards {
		if sh.now < end {
			sh.now = end
		}
	}
	ss.flush()

	// Fold phase stats into the engine counters. The critical path of a
	// phase is the deepest per-shard completion front F — the lag-matrix
	// recurrence in pipeRunWindow.
	var crit uint64
	for s := 0; s < n; s++ {
		if h := p.hist[s]; len(h) > 0 && h[len(h)-1].f > crit {
			crit = h[len(h)-1].f
		}
	}
	ss.stat.CriticalEvents += crit
	ss.stat.TotalEvents += p.total
	ss.stat.CrossShard += p.cross
	ss.stat.Windows += uint64(len(p.busy))
	for _, c := range p.busy {
		ss.stat.BusyShardSum += uint64(c)
		if c > ss.stat.MaxBusy {
			ss.stat.MaxBusy = c
		}
	}
}

// pipeShardLoop is one shard's phase worker. Each iteration either executes
// the earliest window it can prove complete, or registers as stuck and
// sleeps until new input is sealed or an idle jump fast-forwards the phase.
func (ss *ShardedScheduler) pipeShardLoop(s int) {
	p := &ss.pipe
	n := len(ss.shards)
	sh := ss.shards[s]
	w, k := p.w, p.k
	for {
		if p.sealed[s].Load() >= p.last.Load() {
			// Done: nothing up to the last window remains for this shard,
			// and every future inbound event provably arrives after it.
			// Register as permanently exited so the all-stuck check still
			// fires.
			p.pmu.Lock()
			p.exited++
			if p.liveStuck+p.exited == n {
				p.jumpLocked()
			}
			p.pmu.Unlock()
			return
		}
		p.pmu.Lock()
		ver, failed := p.ver, p.failed != nil
		p.pmu.Unlock()
		if failed {
			return
		}

		// kReady is the highest window this shard could prove complete:
		// every inbound queue must be sealed to at least kReady-lag.
		// sealed only grows, so the lockless read is a safe lower bound.
		kReady := k - 1
		for src := 0; src < n; src++ {
			if src == s {
				continue
			}
			if r := p.sealed[src].Load() + int64(p.lag[src][s]); r < kReady {
				kReady = r
			}
		}

		// Peek the earliest actionable event: the local heap plus every
		// sealed inbound bucket. Entries in unsealed buckets arrive in
		// windows > kReady, so ignoring them cannot select a wrong window.
		x, have := sh.nextEventAt()
		for src := 0; src < n; src++ {
			if src == s {
				continue
			}
			sl := p.sealed[src].Load()
			pr := &p.pairs[src*n+s]
			pr.mu.Lock()
			for i := range pr.buckets {
				b := &pr.buckets[i]
				if b.window > sl {
					break
				}
				if len(b.entries) > 0 && (!have || b.minAt < x) {
					x, have = b.minAt, true
				}
			}
			pr.mu.Unlock()
		}

		// Read the halt cap only now: a seal this shard's kReady already
		// counted was published after any cap it carries.
		last := p.last.Load()
		nextw := k // sentinel: no pending event below end
		if have && x < p.end {
			kx := int64((x - p.base) / w)
			if kx <= kReady && kx <= last {
				if kx <= p.sealed[s].Load() {
					panic(fmt.Sprintf("simnet: shard %d has an event at %v in window %d it already sealed: cross-shard lookahead violated", s, x, kx))
				}
				ss.pipeRunWindow(s, kx)
				continue
			}
			nextw = kx
		}

		// Cannot execute. Register as stuck; if the registration makes
		// the all-stuck snapshot complete, fast-forward, else sleep until
		// a sealer clears the registration. The ver check rejects a
		// registration whose peek raced a seal, which is what makes the
		// complete snapshot consistent: when all n shards are registered,
		// no seal happened after any of their peeks began, so no
		// executable event below end is hiding anywhere.
		p.pmu.Lock()
		if p.ver != ver {
			p.pmu.Unlock()
			continue
		}
		p.stuck[s] = true
		p.nextw[s] = nextw
		p.liveStuck++
		if p.liveStuck+p.exited == n {
			p.jumpLocked()
		} else {
			for p.stuck[s] && p.failed == nil {
				p.cond.Wait()
			}
		}
		p.pmu.Unlock()
	}
}

// jumpLocked fast-forwards an all-stuck phase: no shard can execute, so the
// earliest window anyone will ever execute again is kmin = min over stuck
// shards of their pending window (last+1 if everyone is idle). Sealing every
// shard to kmin-1 in one step is therefore safe — emissions from future
// executions land at ≥ kmin+1 — and it unblocks the kmin shard immediately,
// replacing O(k) lag-at-a-time seal ratcheting through empty stretches with
// O(1) per executed window. Caller holds pmu.
func (p *pipeState) jumpLocked() {
	kmin := p.last.Load() + 1
	for s, st := range p.stuck {
		if st && p.nextw[s] < kmin {
			kmin = p.nextw[s]
		}
	}
	target := kmin - 1
	for s := range p.sealed {
		if p.sealed[s].Load() < target {
			p.sealed[s].Store(target)
		}
	}
	for s := range p.stuck {
		p.stuck[s] = false
	}
	p.liveStuck = 0
	p.cond.Broadcast()
}

// pipeRunWindow executes window kx on shard s: drain every inbound bucket
// up to the exact watermark kx-lag (everything that could arrive before the
// window's end, all provably sealed by the kReady condition), merge in
// (at, src, seq) order, run the window, then publish the seal and the
// critical-path update.
func (ss *ShardedScheduler) pipeRunWindow(s int, kx int64) {
	p := &ss.pipe
	n := len(ss.shards)
	sh := ss.shards[s]
	batch := p.batch[s][:0]
	for src := 0; src < n; src++ {
		if src == s {
			continue
		}
		wm := kx - int64(p.lag[src][s])
		pr := &p.pairs[src*n+s]
		pr.mu.Lock()
		cut := 0
		for cut < len(pr.buckets) && pr.buckets[cut].window <= wm {
			batch = append(batch, pr.buckets[cut].entries...)
			cut++
		}
		if cut > 0 {
			rest := copy(pr.buckets, pr.buckets[cut:])
			tail := pr.buckets[rest:]
			for i := range tail {
				tail[i] = pipeBucket{}
			}
			pr.buckets = pr.buckets[:rest]
		}
		pr.mu.Unlock()
	}
	if len(batch) > 0 {
		sortXEntries(batch)
		for i := range batch {
			e := &batch[i]
			sh.AtCall(e.at, e.fn, e.arg)
		}
	}
	drained := uint64(len(batch))
	for i := range batch {
		batch[i] = xentry{}
	}
	p.batch[s] = batch[:0]

	p.curWin[s] = kx
	winEnd := p.base + time.Duration(kx+1)*p.w
	if winEnd > p.end {
		winEnd = p.end
	}
	steps := sh.runWindow(winEnd)
	halted := sh.halted
	sh.halted = false

	// Seal and publish under pmu, capping the phase first if the window
	// halted (see runPhase). F(s, kx) = max(F(s, prev), max over
	// senders of F(src, kx-lag)) + steps: window kx could not start before
	// its own previous window or any sender window it waited on finished.
	// The sender history below the watermark is final because the kReady
	// condition proved sealed[src] ≥ kx-lag.
	p.pmu.Lock()
	var f uint64
	if h := p.hist[s]; len(h) > 0 {
		f = h[len(h)-1].f
	}
	for src := 0; src < n; src++ {
		if src == s {
			continue
		}
		if g := histAt(p.hist[src], kx-int64(p.lag[src][s])); g > f {
			f = g
		}
	}
	f += steps
	p.hist[s] = append(p.hist[s], fpoint{win: kx, f: f})
	p.busy[kx]++
	p.total += steps
	p.cross += drained
	if halted {
		p.halted = true
		if c := kx - 1 + p.maxLag[s]; c < p.last.Load() {
			p.last.Store(c)
		}
	}
	p.sealed[s].Store(kx)
	p.ver++
	for i := range p.stuck {
		p.stuck[i] = false
	}
	p.liveStuck = 0
	p.cond.Broadcast()
	p.pmu.Unlock()
}

// histAt returns the critical-path depth of a shard at window k: the f of
// the latest history point with win ≤ k, or 0 before the first.
func histAt(h []fpoint, k int64) uint64 {
	lo, hi := 0, len(h)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if h[mid].win <= k {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == 0 {
		return 0
	}
	return h[lo-1].f
}

// sortXEntries orders a cross-shard batch by (at, src, seq) — the merge
// order shared by the flush and the phase drains.
func sortXEntries(batch []xentry) {
	sort.Slice(batch, func(i, j int) bool {
		a, b := &batch[i], &batch[j]
		if a.at != b.at {
			return a.at < b.at
		}
		if a.src != b.src {
			return a.src < b.src
		}
		return a.seq < b.seq
	})
}
