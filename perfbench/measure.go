package main

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"runtime/pprof"
	"time"

	"jxta/internal/deploy"
	"jxta/internal/simnet"
)

// rep is one repetition: set-up, measured phase and readings.
type rep struct {
	setupS, runS float64
	allocs       uint64
	allocBytes   uint64
	heapPerPeer  float64
	// Deterministic counts of the measured phase: replay and observer
	// checks compare them between repetitions.
	events, msgs, bytes uint64
	out                 outcome
	// Traced repetitions only.
	layers map[string]float64
	tr     *tracer
}

// counts is the deterministic fingerprint of a measured phase.
func (r rep) counts() [3]uint64 { return [3]uint64{r.events, r.msgs, r.bytes} }

// runRep builds and measures one instance. A non-nil tracer makes it a
// traced repetition: observer installed, spans recorded, layer counters
// read, CPU profile added to prof and, when kernels is set, the codec
// microbenchmarks run on data captured from this run.
func runRep(sp spec, seed int64, tr *tracer, prof *attribution, kernels map[string]float64) (rep, error) {
	var r rep
	base := liveHeap()
	start := time.Now()
	inst, err := sp.setup(seed, tr)
	if err != nil {
		return r, fmt.Errorf("setup: %w", err)
	}
	r.setupS = time.Since(start).Seconds()
	o := inst.overlay()

	var c0 map[string]float64
	var cpu bytes.Buffer
	if tr != nil {
		c0 = readCounters(o)
		tr.install(o)
		if err := pprof.StartCPUProfile(&cpu); err != nil {
			return r, err
		}
	}
	steps0, net0 := o.Sched.Steps(), o.Net.Stats()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start = time.Now()
	err = inst.run(tr)
	r.runS = time.Since(start).Seconds()
	runtime.ReadMemStats(&m1)
	if tr != nil {
		pprof.StopCPUProfile()
	}
	if err != nil {
		return r, fmt.Errorf("measured phase: %w", err)
	}
	net1 := o.Net.Stats()
	r.events = o.Sched.Steps() - steps0
	r.msgs = net1.Messages - net0.Messages
	r.bytes = net1.Bytes - net0.Bytes
	r.allocs = m1.Mallocs - m0.Mallocs
	r.allocBytes = m1.TotalAlloc - m0.TotalAlloc
	r.out = inst.outcome()

	if tr != nil {
		o.Net.OnSend = nil
		if err := prof.add(cpu.Bytes()); err != nil {
			return r, err
		}
		r.tr = tr
		r.layers = layerMetrics(c0, readCounters(o), &m0, &m1, r)
		if kernels != nil {
			runKernels(o, tr.obs.messages(), kernels)
		}
	}
	peers := len(o.Rdvs) + len(o.Edges)
	if live := liveHeap(); live > base && peers > 0 {
		r.heapPerPeer = float64(live-base) / float64(peers)
	}
	runtime.KeepAlive(inst)
	return r, nil
}

// minReps is the fewest timed repetitions a run makes, whatever the budget.
const minReps = 3

// measure runs the workload for budget and aggregates the repetitions. An
// untimed warm-up repetition comes first (checked, not timed). Untraced
// runs then repeat until the budget is spent. Traced runs alternate an
// untraced and a traced repetition, so trace.overhead compares neighbours.
// Every untraced repetition is followed by a timed reference job, which
// sets the scale of the end-to-end wall times (see calibrate.go).
func measure(w workload, sp spec, seed int64, budget time.Duration, traced bool) (result, runInfo, error) {
	var info runInfo
	warm, err := runRep(sp, seed, nil, nil, nil)
	if err != nil {
		return result{}, info, err
	}
	calibrate() // warm-up of the reference job, not timed
	var plain, withTrace []rep
	prof := newAttribution()
	kernels := make(map[string]float64)
	start := time.Now()
	for len(plain) < minReps || time.Since(start) < budget {
		r, err := runRep(sp, seed, nil, nil, nil)
		if err != nil {
			return result{}, info, err
		}
		plain = append(plain, r)
		info.RefS = append(info.RefS, calibrate())
		if traced {
			var k map[string]float64
			if len(withTrace) == 0 {
				k = kernels
			}
			r, err := runRep(sp, seed, newTracer(), prof, k)
			if err != nil {
				return result{}, info, err
			}
			withTrace = append(withTrace, r)
		}
	}

	info.Reps, info.TracedReps = len(plain), len(withTrace)
	for _, r := range plain {
		info.SetupS = append(info.SetupS, r.setupS)
		info.RunS = append(info.RunS, r.runS)
	}
	info.Problems = checkRuns(warm, plain, withTrace)
	info.OpSamples = len(warm.out.latencyMs)
	info.Coverage = warm.out.coverage

	res := result{
		Correct:   len(info.Problems) == 0,
		Attempted: warm.out.attempted,
		Failed:    warm.out.failed,
		Metrics:   make(map[string]metric),
	}
	if res.Attempted < 1 {
		return result{}, info, fmt.Errorf("workload %s attempted no operation", w.name)
	}
	info.HostScale = hostScale(info.RefS)
	if traced {
		perLayer(res.Metrics, plain, withTrace, prof, kernels)
	} else {
		endToEnd(res.Metrics, plain, warm, info.HostScale)
	}
	for name, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return result{}, info, fmt.Errorf("metric %s is %v", name, m.Value)
		}
	}
	return res, info, nil
}

// checkRuns applies the output checks: every workload check on every
// repetition, replay (one seed, identical events, messages and bytes in
// every repetition) and pure observation (traced repetitions count the
// same as untraced ones).
func checkRuns(warm rep, plain, traced []rep) []string {
	var problems []string
	all := append(append([]rep{warm}, plain...), traced...)
	for _, r := range all {
		problems = append(problems, r.out.problems...)
		if len(r.out.latencyMs) == 0 {
			problems = append(problems, "measured phase completed no timed operation")
		}
	}
	for i, r := range plain {
		if p := sameCounts("replay", warm, r); p != "" {
			problems = append(problems, fmt.Sprintf("%s (repetition %d)", p, i+1))
		}
	}
	for i, r := range traced {
		if p := sameCounts("traced run differs from untraced run", warm, r); p != "" {
			problems = append(problems, fmt.Sprintf("%s (traced repetition %d)", p, i+1))
		}
	}
	return dedupe(problems)
}

// sameCounts reports a mismatch of the deterministic counts, or "".
func sameCounts(what string, want, got rep) string {
	if want.counts() == got.counts() {
		return ""
	}
	return fmt.Sprintf("%s: events/messages/bytes %v, want %v", what, got.counts(), want.counts())
}

func dedupe(xs []string) []string {
	seen := make(map[string]bool)
	var out []string
	for _, x := range xs {
		if !seen[x] {
			seen[x] = true
			out = append(out, x)
		}
	}
	return out
}

// endToEnd fills the untraced metrics: wall times and allocation figures
// are medians over the timed repetitions, and the wall times are rescaled
// to reference-host seconds by scale (see calibrate.go); traffic counts
// repeat exactly, so they come from the warm-up.
func endToEnd(m map[string]metric, plain []rep, warm rep, scale float64) {
	pick := func(f func(rep) float64) float64 {
		xs := make([]float64, len(plain))
		for i, r := range plain {
			xs[i] = f(r)
		}
		return median(xs)
	}
	m["setup_s"] = metric{scale * pick(func(r rep) float64 { return r.setupS }), "s"}
	m["run_s"] = metric{scale * pick(func(r rep) float64 { return r.runS }), "s"}
	m["allocs"] = metric{pick(func(r rep) float64 { return float64(r.allocs) }), "count"}
	m["alloc_bytes"] = metric{pick(func(r rep) float64 { return float64(r.allocBytes) }), "B"}
	m["heap_per_peer_B"] = metric{pick(func(r rep) float64 { return r.heapPerPeer }), "B"}
	m["net_msgs"] = metric{float64(warm.msgs), "count"}
	m["net_bytes"] = metric{float64(warm.bytes), "B"}
}

// parallel returns the sharded engine's window statistics (zero for the
// serial engine).
func parallel(o *deploy.Overlay) simnet.ParallelStats {
	if eng := o.Engine(); eng != nil {
		return eng.ParallelStats()
	}
	return simnet.ParallelStats{}
}
