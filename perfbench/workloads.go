package main

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"jxta/internal/advertisement"
	"jxta/internal/deploy"
	"jxta/internal/discovery"
	"jxta/internal/ids"
	"jxta/internal/node"
	"jxta/internal/peerview"
	"jxta/internal/rendezvous"
	"jxta/internal/topology"
)

// spec is one workload at one size: it builds a fresh instance per
// repetition from the seed alone.
type spec interface {
	// describe lists the size parameters for the run metadata.
	describe() map[string]any
	// setup builds the overlay and brings it to the state the measured
	// phase starts from.
	setup(seed int64, tr *tracer) (instance, error)
}

// instance is one built workload.
type instance interface {
	overlay() *deploy.Overlay
	// run executes the measured phase.
	run(tr *tracer) error
	// outcome reads the results and checks them.
	outcome() outcome
}

// outcome is what a measured phase produced: its operations, their virtual
// latencies and any check that failed.
type outcome struct {
	attempted int64
	failed    int64
	latencyMs []float64
	coverage  float64 // peerview-converge: final view entries over tier members to know
	problems  []string
}

// workload names a spec at benchmark size and at smoke-test size.
type workload struct {
	name string
	full spec
	tiny spec
}

var workloads = []workload{
	{
		name: "peerview-converge",
		full: peerviewSpec{R: 80, Horizon: 40 * time.Minute},
		tiny: peerviewSpec{R: 8, Horizon: 5 * time.Minute},
	},
	{
		name: "discovery-mixed",
		full: discoverySpec{R: 50, Noisers: 50, NoiseRdvs: 5, FakeAdvs: 100, Publishers: 50, Targets: 500,
			Queries: 5000, PublishEvery: 10, PublishAt: 10 * time.Second, QueryAt: 40 * time.Minute},
		tiny: discoverySpec{R: 6, Noisers: 4, NoiseRdvs: 2, FakeAdvs: 5, Publishers: 2, Targets: 4,
			Queries: 40, PublishEvery: 10, PublishAt: 5 * time.Minute, QueryAt: 10 * time.Minute},
	},
	{
		name: "edge-lease-sharded",
		full: leaseSpec{R: 50, Edges: 5000, Shards: 2, Lease: time.Minute,
			Warmup: 40 * time.Second, Batches: 21, JoinEvery: 10 * time.Second, JoinsPerBatch: 50},
		tiny: leaseSpec{R: 6, Edges: 60, Shards: 2, Lease: time.Minute,
			Warmup: 40 * time.Second, Batches: 3, JoinEvery: 10 * time.Second, JoinsPerBatch: 4},
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

// inputRand is the benchmark's own input generator (names, query order,
// interleave), separate from the simulator's streams but derived from the
// same seed.
func inputRand(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed ^ 0x5eed_be9c))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// --- peerview-converge ---

// peerviewSpec is the Fig. 3 set-up: a rendezvous-only tier bootstrapped
// as a chain, started cold on the serial engine and run through
// convergence and the first entry expiries (PVE_EXPIRATION, 20 min) into
// the plateau. The operation is one rendezvous learning one tier member;
// it fails if the member never entered the view.
type peerviewSpec struct {
	R       int
	Horizon time.Duration
}

func (s peerviewSpec) describe() map[string]any {
	return map[string]any{"r": s.R, "topology": "chain", "engine": "serial", "virtual_s": s.Horizon.Seconds()}
}

type peerviewRun struct {
	spec peerviewSpec
	o    *deploy.Overlay
	// learned[i][peer] is the virtual time rendezvous i first added peer.
	learned []map[ids.ID]time.Duration
}

func (s peerviewSpec) setup(seed int64, tr *tracer) (instance, error) {
	var o *deploy.Overlay
	var err error
	tr.span("build", func() {
		o, err = deploy.Build(deploy.Spec{Seed: seed, NumRdv: s.R, Topology: topology.Chain})
	})
	if err != nil {
		return nil, err
	}
	p := &peerviewRun{spec: s, o: o, learned: make([]map[ids.ID]time.Duration, s.R)}
	for i, r := range o.Rdvs {
		seen := make(map[ids.ID]time.Duration, s.R)
		p.learned[i] = seen
		r.PeerView.SetListener(func(kind peerview.EventKind, peer ids.ID, at time.Duration) {
			if _, ok := seen[peer]; kind == peerview.EventAdd && !ok {
				seen[peer] = at
			}
		})
	}
	return p, nil
}

func (p *peerviewRun) overlay() *deploy.Overlay { return p.o }

func (p *peerviewRun) run(tr *tracer) error {
	tr.span("start_all", p.o.StartAll)
	tr.span("run_measure", func() { p.o.Sched.Run(p.spec.Horizon) })
	return nil
}

func (p *peerviewRun) outcome() outcome {
	var out outcome
	var inView int64
	for i, r := range p.o.Rdvs {
		for _, at := range p.learned[i] {
			out.latencyMs = append(out.latencyMs, ms(at))
		}
		out.attempted += int64(p.spec.R - 1)
		out.failed += int64(p.spec.R - 1 - len(p.learned[i]))
		inView += int64(r.PeerView.Size())
	}
	out.coverage = float64(inView) / float64(out.attempted)
	return out
}

// --- discovery-mixed ---

// discoverySpec is Fig. 4 (right) configuration B: noise edges holding
// FakeAdvs advertisements each, and one searcher querying Targets back to
// back, flushing its cache after every answer. Every PublishEvery queries
// a random noise edge publishes a fresh advertisement, so index writes run
// beside the reads. The targets come from Publishers edges spread evenly
// over the tier, so the walk distance from the searcher averages over many
// ring positions instead of hanging on one.
//
// Everything is published at PublishAt, while the views hold little more
// than the bootstrap seeds, and queried from QueryAt, once they have
// converged. Most replicas were therefore placed over a far smaller view
// than the one lookups hash over, and most queries fall back to the
// rendezvous walk. Peerview entries never expire (the paper's tuned
// PVE_EXPIRATION, Fig. 4 left), so the converged views stay complete and
// every walk can reach the publisher's rendezvous. Querying instead in the
// post-expiry plateau, the paper's timing, makes the walk share swing
// between none and most from seed to seed, and lets a walk skip a
// rendezvous its neighbours dropped, so some queries time out.
type discoverySpec struct {
	R, Noisers, NoiseRdvs, FakeAdvs            int
	Publishers, Targets, Queries, PublishEvery int
	PublishAt, QueryAt                         time.Duration
}

// noExpiry outlasts every run: peerview entries are never dropped.
const noExpiry = 24 * time.Hour

func (s discoverySpec) describe() map[string]any {
	return map[string]any{"r": s.R, "noisers": s.Noisers, "noise_rdvs": s.NoiseRdvs,
		"fake_advs": s.FakeAdvs, "publishers": s.Publishers, "targets": s.Targets, "queries": s.Queries,
		"publish_every": s.PublishEvery, "publish_at_s": s.PublishAt.Seconds(),
		"query_at_s": s.QueryAt.Seconds(), "entry_expiry_s": noExpiry.Seconds(), "engine": "serial"}
}

type discoveryRun struct {
	spec       discoverySpec
	o          *deploy.Overlay
	publishers []*node.Node
	searcher   *node.Node
	noisers    []*node.Node
	targets    []string // target k is published by publishers[k%len(publishers)]
	order      []int    // order[i] indexes targets for query i
	fresh      []string // names of the interleaved publishes
	freshBy    []int    // freshBy[k] indexes noisers
	latencyMs  []float64
	failed     int64
	problems   []string
	done       bool
}

func resourceAdv(name string) *advertisement.Resource {
	return &advertisement.Resource{ResID: ids.FromName(ids.KindAdv, name), Name: name}
}

func (s discoverySpec) setup(seed int64, tr *tracer) (instance, error) {
	var edges []deploy.EdgeGroup
	for i := range s.Publishers {
		edges = append(edges, deploy.EdgeGroup{AttachTo: i * s.R / s.Publishers, Count: 1,
			Prefix: fmt.Sprintf("publisher%d-", i)})
	}
	edges = append(edges, deploy.EdgeGroup{AttachTo: s.R - 1, Count: 1, Prefix: "searcher"})
	per, extra := s.Noisers/s.NoiseRdvs, s.Noisers%s.NoiseRdvs
	for i := 0; i < s.NoiseRdvs; i++ {
		count := per
		if i < extra {
			count++
		}
		edges = append(edges, deploy.EdgeGroup{AttachTo: i * s.R / s.NoiseRdvs, Count: count,
			Prefix: fmt.Sprintf("noiser%d-", i)})
	}
	var o *deploy.Overlay
	var err error
	tr.span("build", func() {
		o, err = deploy.Build(deploy.Spec{Seed: seed, NumRdv: s.R, Topology: topology.Chain,
			Peerview: peerview.Config{EntryExpiry: noExpiry}, Discovery: discovery.DefaultConfig(), Edges: edges})
	})
	if err != nil {
		return nil, err
	}
	d := &discoveryRun{spec: s, o: o, publishers: o.Edges[:s.Publishers],
		searcher: o.Edges[s.Publishers], noisers: o.Edges[s.Publishers+1:]}
	rng := inputRand(seed)
	d.targets = uniqueNames(rng, "target", s.Targets)
	for range s.Queries {
		d.order = append(d.order, rng.Intn(s.Targets))
	}
	for range s.Queries / s.PublishEvery {
		d.freshBy = append(d.freshBy, rng.Intn(len(d.noisers)))
	}
	d.fresh = uniqueNames(rng, "fresh", len(d.freshBy))
	noise := uniqueNames(rng, "fake", len(d.noisers)*s.FakeAdvs)

	tr.span("start_all", o.StartAll)
	tr.span("run_setup", func() { o.Sched.Run(s.PublishAt) })
	for k, name := range d.targets {
		tr.publish(func() { d.publishers[k%s.Publishers].Discovery.Publish(resourceAdv(name), 0) })
	}
	for i, name := range noise {
		tr.publish(func() { d.noisers[i/s.FakeAdvs].Discovery.Publish(resourceAdv(name), 0) })
	}
	tr.span("run_setup", func() { o.Sched.Run(s.QueryAt) })
	return d, nil
}

// uniqueNames draws n distinct advertisement names.
func uniqueNames(rng *rand.Rand, prefix string, n int) []string {
	seen := make(map[string]bool, n)
	out := make([]string, 0, n)
	for len(out) < n {
		name := fmt.Sprintf("%s-%08x", prefix, rng.Uint32())
		if !seen[name] {
			seen[name] = true
			out = append(out, name)
		}
	}
	return out
}

func (d *discoveryRun) overlay() *deploy.Overlay { return d.o }

func (d *discoveryRun) run(tr *tracer) error {
	o := d.o
	var query func(i int)
	query = func(i int) {
		if i >= d.spec.Queries {
			d.done = true
			o.Sched.Halt()
			return
		}
		if i > 0 && i%d.spec.PublishEvery == 0 {
			k := i/d.spec.PublishEvery - 1
			tr.publish(func() { d.noisers[d.freshBy[k]].Discovery.Publish(resourceAdv(d.fresh[k]), 0) })
		}
		want := d.targets[d.order[i]]
		// Walk and replica paths can both answer; only the first answer
		// (or the timeout) counts, and it advances the loop exactly once.
		advanced := false
		next := func() {
			advanced = true
			d.searcher.Discovery.FlushCache()
			query(i + 1)
		}
		began := tr.queryStart()
		err := d.searcher.Discovery.Query("Resource", "Name", want,
			func(r discovery.Result) {
				if advanced {
					return
				}
				tr.queryDone(began)
				if p := checkAnswer(want, r.Advs); p != "" {
					d.fail(fmt.Sprintf("query %d: %s", i, p))
				} else {
					d.latencyMs = append(d.latencyMs, ms(r.Elapsed))
				}
				next()
			},
			func() {
				if !advanced {
					d.fail(fmt.Sprintf("query %d for %s timed out", i, want))
					next()
				}
			})
		if err != nil {
			d.fail(fmt.Sprintf("query %d: %v", i, err))
			advanced = true
			o.Sched.After(time.Second, func() { query(i + 1) })
		}
	}
	o.Sched.After(0, func() { query(0) })
	// Generous horizon: the loop halts the scheduler when it finishes.
	tr.span("run_measure", func() { o.Sched.Run(o.Sched.Now() + 24*time.Hour) })
	if !d.done {
		return fmt.Errorf("discovery loop did not finish: %d answers, %d failures", len(d.latencyMs), d.failed)
	}
	return nil
}

func (d *discoveryRun) fail(p string) {
	d.failed++
	if len(d.problems) < 10 {
		d.problems = append(d.problems, p)
	}
}

// checkAnswer reports why a query answer is wrong, or "" when it carries
// the resource advertisement that was asked for.
func checkAnswer(want string, advs []advertisement.Advertisement) string {
	for _, a := range advs {
		if r, ok := a.(*advertisement.Resource); ok && r.Name == want && r.ResID.Equal(ids.FromName(ids.KindAdv, want)) {
			return ""
		}
	}
	return fmt.Sprintf("answer for %s lacks it (%d advertisements)", want, len(advs))
}

func (d *discoveryRun) outcome() outcome {
	return outcome{attempted: int64(d.spec.Queries), failed: d.failed,
		latencyMs: d.latencyMs, problems: d.problems}
}

// --- edge-lease-sharded ---

// leaseSpec is the lean scale configuration (shared metrics registry, edge
// hibernation on) on the pipelined sharded engine: Edges edges spread over
// R rendezvous hold Lease-long leases. The measured phase is Batches
// windows of steady-state renewals; at the start of each window
// JoinsPerBatch new edges join at random rendezvous, and the time each
// takes to obtain its lease is the operation latency.
type leaseSpec struct {
	R, Edges, Shards       int
	Lease, Warmup          time.Duration
	Batches, JoinsPerBatch int
	JoinEvery              time.Duration
}

func (s leaseSpec) describe() map[string]any {
	return map[string]any{"r": s.R, "edges": s.Edges, "shards": s.Shards, "lease_s": s.Lease.Seconds(),
		"warmup_s": s.Warmup.Seconds(), "batches": s.Batches, "join_every_s": s.JoinEvery.Seconds(),
		"joins_per_batch": s.JoinsPerBatch, "engine": "sharded-pipelined", "metrics": "lean", "hibernate": true}
}

type joiner struct {
	n        *node.Node
	joinedAt time.Duration
	leasedAt time.Duration // -1 until the first grant
}

type leaseRun struct {
	spec    leaseSpec
	o       *deploy.Overlay
	attach  []int // attach[k] is joiner k's rendezvous
	joiners []*joiner
}

func (s leaseSpec) setup(seed int64, tr *tracer) (instance, error) {
	groups := make([]deploy.EdgeGroup, 0, s.R)
	per, extra := s.Edges/s.R, s.Edges%s.R
	for i := 0; i < s.R; i++ {
		count := per
		if i < extra {
			count++
		}
		if count > 0 {
			groups = append(groups, deploy.EdgeGroup{AttachTo: i, Count: count})
		}
	}
	var o *deploy.Overlay
	var err error
	tr.span("build", func() {
		o, err = deploy.Build(deploy.Spec{Seed: seed, NumRdv: s.R, Shards: s.Shards,
			LeanMetrics: true, Hibernate: true, Topology: topology.Chain,
			Lease: rendezvous.Config{LeaseDuration: s.Lease}, Edges: groups})
	})
	if err != nil {
		return nil, err
	}
	l := &leaseRun{spec: s, o: o}
	rng := inputRand(seed)
	for range s.Batches * s.JoinsPerBatch {
		l.attach = append(l.attach, rng.Intn(s.R))
	}
	tr.span("start_all", o.StartAll)
	tr.span("run_setup", func() { o.Sched.Run(s.Warmup) })
	return l, nil
}

func (l *leaseRun) overlay() *deploy.Overlay { return l.o }

func (l *leaseRun) run(tr *tracer) error {
	o := l.o
	for b := range l.spec.Batches {
		for range l.spec.JoinsPerBatch {
			k := len(l.joiners)
			n, err := o.AddEdge(fmt.Sprintf("joiner%d", k), l.attach[k])
			if err != nil {
				return err
			}
			j := &joiner{n: n, joinedAt: o.Sched.Now(), leasedAt: -1}
			// The listener runs on the edge's shard; j is read only after
			// Run returns.
			n.Rendezvous.AddLeaseListener(func(_ ids.ID, connected bool) {
				if connected && j.leasedAt < 0 {
					j.leasedAt = n.Env.Now()
				}
			})
			l.joiners = append(l.joiners, j)
		}
		until := l.spec.Warmup + time.Duration(b+1)*l.spec.JoinEvery
		tr.span("run_measure", func() { o.Sched.Run(until) })
	}
	return nil
}

func (l *leaseRun) outcome() outcome {
	var out outcome
	for _, j := range l.joiners {
		if j.leasedAt >= 0 {
			out.latencyMs = append(out.latencyMs, ms(j.leasedAt-j.joinedAt))
		}
	}
	out.attempted = int64(len(l.o.Edges))
	out.failed = int64(len(unleased(l.o.Edges)))
	if out.failed > 0 {
		out.problems = append(out.problems, fmt.Sprintf("%d of %d edges end the run without a lease (first: %s)",
			out.failed, out.attempted, unleased(l.o.Edges)[0]))
	}
	return out
}

// unleased names the edges that hold no lease.
func unleased(edges []*node.Node) []string {
	var out []string
	for _, e := range edges {
		if _, ok := e.Rendezvous.ConnectedRdv(); !ok {
			out = append(out, e.Config.Name)
		}
	}
	return out
}
