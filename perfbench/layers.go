package main

import (
	"runtime"
	"strings"
	"time"

	"jxta/internal/advertisement"
	"jxta/internal/advstore"
	"jxta/internal/deploy"
	"jxta/internal/experiments"
	"jxta/internal/message"
)

// Layer counters read from the program's public state. Cumulative values
// are read before and after the measured phase and reported as the
// difference; gauges are read after it.

// nodeSeries names the per-node registry series (summed over the
// population) behind each counter.
var nodeSeries = map[string]string{
	"resolver.queries":        "jxta_resolver_queries_sent_total",
	"resolver.responses":      "jxta_resolver_responses_sent_total",
	"resolver.timeouts":       "jxta_resolver_timeouts_total",
	"peerview.probes":         "jxta_peerview_probes_sent_total",
	"peerview.adds":           "jxta_peerview_adds_total",
	"peerview.expiries":       "jxta_peerview_expiries_total",
	"peerview.evictions":      "jxta_peerview_probe_evictions_total",
	"rendezvous.lease_grants": "jxta_rendezvous_leases_granted_total",
	"rendezvous.renewals":     "jxta_rendezvous_leases_renewed_total",
	"rendezvous.walks":        "jxta_rendezvous_walks_started_total",
}

// readCounters snapshots every cumulative layer counter.
func readCounters(o *deploy.Overlay) map[string]float64 {
	c := make(map[string]float64)
	totals := experiments.CollectNodeMetrics(o, 0).Totals
	for name, series := range nodeSeries {
		c[name] += totals[series]
	}
	for _, g := range serviceGroups {
		for _, svc := range g.services {
			c["endpoint.tx."+g.name] += totals[`jxta_endpoint_tx_messages_total{service="`+svc+`"}`]
			c["endpoint.rx."+g.name] += totals[`jxta_endpoint_rx_messages_total{service="`+svc+`"}`]
		}
	}
	for _, n := range o.Nodes() {
		if n.PeerView != nil {
			c["peerview.rounds"] += float64(n.PeerView.Rounds)
		}
		st := n.Discovery.Stats
		c["discovery.queries"] += float64(st.QueriesSent)
		c["discovery.walks"] += float64(st.WalksStarted)
		c["srdi.tuples_replicated"] += float64(st.TuplesReplicated)
		wakes, freezes := n.HibernationStats()
		c["node.hib_wakes"] += float64(wakes)
		c["node.hib_freezes"] += float64(freezes)
	}
	hits, misses := o.AdvStore.Stats()
	c["advstore.hits"] += float64(hits)
	c["advstore.misses"] += float64(misses)
	c["advstore.live"] += float64(o.AdvStore.Len())
	ps := parallel(o)
	c["simnet.windows"] += float64(ps.Windows)
	c["simnet.cross_shard"] += float64(ps.CrossShard)
	c["simnet.busy_sum"] += float64(ps.BusyShardSum)
	c["simnet.total_events"] += float64(ps.TotalEvents)
	c["simnet.critical_events"] += float64(ps.CriticalEvents)
	c["transport.dropped"] += float64(o.Net.Stats().Dropped)
	for _, e := range o.Edges {
		if e.Hibernating() {
			c["node.hibernating"]++
		}
	}
	return c
}

// layerMetrics derives one traced repetition's per-layer counts.
func layerMetrics(c0, c1 map[string]float64, m0, m1 *runtime.MemStats, r rep) map[string]float64 {
	d := func(name string) float64 { return c1[name] - c0[name] }
	l := make(map[string]float64)
	for name := range nodeSeries {
		l[name] = d(name)
	}
	for _, g := range serviceGroups {
		l["endpoint.tx."+g.name] = d("endpoint.tx." + g.name)
		l["endpoint.rx."+g.name] = d("endpoint.rx." + g.name)
		l["transport.msgs."+g.name] = float64(r.tr.obs.msgs[groupOf(g.services[0])].Load())
		l["transport.bytes."+g.name] = float64(r.tr.obs.bytes[groupOf(g.services[0])].Load())
	}
	for _, name := range []string{"peerview.rounds", "discovery.queries", "srdi.tuples_replicated",
		"node.hib_wakes", "node.hib_freezes", "simnet.windows", "simnet.cross_shard", "transport.dropped"} {
		l[name] = d(name)
	}
	l["simnet.events"] = float64(r.events)
	l["transport.msgs"] = float64(r.msgs)
	l["transport.bytes"] = float64(r.bytes)
	l["srdi.pushes"] = l["transport.msgs.srdi"]
	l["peerview.adds_per_probe"] = ratio(l["peerview.adds"], l["peerview.probes"])
	l["peerview.coverage"] = r.out.coverage
	l["discovery.walk_fraction"] = ratio(d("discovery.walks"), l["discovery.queries"])
	l["simnet.avg_busy"] = ratio(d("simnet.busy_sum"), l["simnet.windows"])
	l["simnet.speedup_bound"] = ratio(d("simnet.total_events"), d("simnet.critical_events"))
	l["advstore.live"] = c1["advstore.live"]
	l["advstore.hit_ratio"] = ratio(d("advstore.hits"), d("advstore.hits")+d("advstore.misses"))
	l["node.hibernating"] = c1["node.hibernating"]
	l["runtime.gc_cycles"] = float64(m1.NumGC - m0.NumGC)
	l["runtime.gc_pause_s"] = float64(m1.PauseTotalNs-m0.PauseTotalNs) / 1e9
	l["op.fail_ratio"] = ratio(float64(r.out.failed), float64(r.out.attempted))
	l["op.samples"] = float64(len(r.out.latencyMs))
	l["op.latency_p50_ms"] = quantile(r.out.latencyMs, 0.50)
	l["op.latency_p99_ms"] = quantile(r.out.latencyMs, 0.99)
	return l
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// profileRows are the layers that get a *.cpu_share metric.
var profileRows = []string{"simnet", "transport", "document", "message", "advertisement", "advstore",
	"endpoint", "resolver", "peerview", "rendezvous", "discovery", "srdi", "cm", "hibpool"}

// perLayer fills the traced metrics. Counts are deterministic and come
// from the last traced repetition; spans are medians over traced
// repetitions; profile shares pool every traced measured phase.
func perLayer(m map[string]metric, plain, traced []rep, prof *attribution, kernels map[string]float64) {
	last := traced[len(traced)-1]
	for name, v := range last.layers {
		m[name] = metric{v, layerUnit(name)}
	}
	runS := func(rs []rep) float64 {
		xs := make([]float64, len(rs))
		for i, r := range rs {
			xs[i] = r.runS
		}
		return median(xs)
	}
	untracedRun := runS(plain)
	m["simnet.events_per_s"] = metric{ratio(float64(last.events), untracedRun), "1/s"}
	m["trace.overhead"] = metric{runS(traced)/untracedRun - 1, "ratio"}

	for _, span := range []string{"build", "start_all", "run_setup", "run_measure"} {
		xs := make([]float64, len(traced))
		for i, r := range traced {
			xs[i] = r.tr.spans[span].Seconds()
		}
		m["span."+span+"_s"] = metric{median(xs), "s"}
	}
	var queryUs, publishUs []float64
	for _, r := range traced {
		queryUs = append(queryUs, r.tr.queryUs...)
		publishUs = append(publishUs, r.tr.publishUs...)
	}
	m["discovery.query_wall_us_p50"] = metric{quantile(queryUs, 0.50), "us"}
	m["discovery.query_wall_us_p99"] = metric{quantile(queryUs, 0.99), "us"}
	m["discovery.publish_wall_us"] = metric{median(publishUs), "us"}

	for _, row := range profileRows {
		m[row+".cpu_share"] = metric{prof.share(row), "share"}
	}
	m["runtime.gc_bg_share"] = metric{prof.share(gcBgRow), "share"}
	m["other.cpu_share"] = metric{prof.share(otherRow), "share"}
	m["profile.samples"] = metric{float64(prof.total), "count"}
	for name, v := range kernels {
		m[name] = metric{v, layerUnit(name)}
	}
}

// layerUnit is the unit of a per-layer count by its name's suffix.
func layerUnit(name string) string {
	switch {
	case strings.HasSuffix(name, "_ns"):
		return "ns"
	case strings.HasSuffix(name, "_ms"):
		return "ms"
	case strings.HasSuffix(name, "_s"):
		return "s"
	case strings.HasPrefix(name, "transport.bytes"):
		return "B"
	case name == "simnet.avg_busy":
		return "shards"
	case name == "simnet.speedup_bound":
		return "x"
	case strings.HasSuffix(name, "_ratio"), strings.HasSuffix(name, "_fraction"), strings.HasSuffix(name, "_per_probe"),
		name == "peerview.coverage":
		return "ratio"
	}
	return "count"
}

// --- codec microbenchmarks on captured data ---

// kernelTime is how long each microbenchmark loops.
const kernelTime = 100 * time.Millisecond

// sink keeps the compiler from dropping measured calls.
var sink any

// runKernels times the codec and interning layers on advertisements of
// the run's rendezvous peers and on wire messages the observer captured.
func runKernels(o *deploy.Overlay, msgs []*message.Message, into map[string]float64) {
	var advs []advertisement.Advertisement
	for i, n := range o.Rdvs {
		if i == 32 {
			break
		}
		advs = append(advs, n.RdvAdv(), n.PeerAdv())
	}
	encoded := make([][]byte, len(advs))
	for i, a := range advs {
		encoded[i], _ = advertisement.EncodeXML(a) // advertisements of live peers always encode
	}
	put := func(prefix string, ns, allocs float64) {
		into[prefix+"_ns"], into[prefix+"_allocs"] = ns, allocs
	}
	put(timeOp("advertisement.encode", len(advs), func(i int) { sink, _ = advertisement.EncodeXML(advs[i]) }))
	put(timeOp("advertisement.decode", len(advs), func(i int) { sink, _ = advertisement.DecodeXML(encoded[i]) }))
	put(timeOp("message.marshal", len(msgs), func(i int) { sink = msgs[i].Marshal() }))
	put(timeOp("message.clone", len(msgs), func(i int) { sink = msgs[i].Clone() }))
	// Interning measures the hit path: every advertisement is already held
	// once, as in a running overlay.
	store := advstore.New()
	for _, a := range advs {
		store.Intern(a)
	}
	put(timeOp("advstore.intern", len(advs), func(i int) { store.Intern(advs[i]).Release() }))
}

// timeOp loops op over n items for kernelTime and returns the prefix with
// ns and heap allocations per call (0, 0 with no items).
func timeOp(prefix string, n int, op func(i int)) (string, float64, float64) {
	if n == 0 {
		return prefix, 0, 0
	}
	for i := 0; i < n; i++ {
		op(i)
	}
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	start := time.Now()
	calls := 0
	for time.Since(start) < kernelTime {
		for i := 0; i < n; i++ {
			op(i)
		}
		calls += n
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&b)
	return prefix, float64(elapsed.Nanoseconds()) / float64(calls), float64(b.Mallocs-a.Mallocs) / float64(calls)
}
