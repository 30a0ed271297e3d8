package experiments

import (
	"fmt"
	"testing"
	"time"
)

// The §5 axes run their measurement loops from inside the simulation —
// query chains on the searcher's shard, kill schedules and sampling on the
// quiesced driver scheduler — so nothing in them may depend on thread
// timing. These tests pin that: a sharded run replayed with the same seed
// reproduces every outcome exactly.

func TestDiscoveryShardedDeterministic(t *testing.T) {
	spec := DiscoverySpec{R: 12, Queries: 8, Shards: 4, Seed: 7,
		Converge: 10 * time.Minute}
	a, err := RunDiscovery(spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunDiscovery(spec)
	if err != nil {
		t.Fatal(err)
	}
	if a.Steps != b.Steps || a.NetStats != b.NetStats {
		t.Fatalf("sharded discovery replay diverged: steps %d vs %d, net %+v vs %+v",
			a.Steps, b.Steps, a.NetStats, b.NetStats)
	}
	if a.Latency.N() != b.Latency.N() || a.MeanMs != b.MeanMs || a.Timeouts != b.Timeouts {
		t.Fatalf("sharded discovery outcomes diverged: n=%d/%d mean=%v/%v timeouts=%d/%d",
			a.Latency.N(), b.Latency.N(), a.MeanMs, b.MeanMs, a.Timeouts, b.Timeouts)
	}
	if a.Latency.N()+a.Timeouts != spec.Queries {
		t.Fatalf("lost queries: %d samples + %d timeouts != %d",
			a.Latency.N(), a.Timeouts, spec.Queries)
	}
}

func TestVolatilityShardedDeterministic(t *testing.T) {
	spec := VolatilitySpec{R: 6, EdgesPerRdv: 1, Kills: 3, Queries: 6,
		KillEvery: []time.Duration{2 * time.Minute}, Shards: 4, Seed: 7}
	a, err := RunVolatility(spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunVolatility(spec)
	if err != nil {
		t.Fatal(err)
	}
	if a.Steps != b.Steps || a.NetStats != b.NetStats {
		t.Fatalf("sharded volatility replay diverged: steps %d vs %d, net %+v vs %+v",
			a.Steps, b.Steps, a.NetStats, b.NetStats)
	}
	pa, pb := a.Points[0], b.Points[0]
	if pa.Phase.Succeeded != pb.Phase.Succeeded || pa.Phase.Timeouts != pb.Phase.Timeouts ||
		pa.Promotions != pb.Promotions || pa.LiveTier != pb.LiveTier ||
		pa.MeanView != pb.MeanView || pa.Reconverged != pb.Reconverged {
		t.Fatalf("sharded volatility outcomes diverged: %+v vs %+v", pa, pb)
	}
}

// discoveryLatencyFingerprint renders a discovery point's measured outcome:
// the latency distribution, timeouts and walk share — everything the
// figure reads, nothing about how long the engine ran afterwards.
func discoveryLatencyFingerprint(res DiscoveryResult) string {
	l := &res.Latency
	return fmt.Sprintf("n=%d mean=%s sd=%s min=%s p50=%s p95=%s max=%s timeouts=%d walk=%s",
		l.N(), hexFloat(l.Mean()), hexFloat(l.Stddev()), hexFloat(l.Min()),
		hexFloat(l.Quantile(0.5)), hexFloat(l.Quantile(0.95)), hexFloat(l.Max()),
		res.Timeouts, hexFloat(res.WalkFraction))
}

// TestDiscoveryShardedStopsAtLastQuery pins the shard-context halt: the
// query chain halts from the searcher's shard when its last query
// completes, and the sharded run must stop within a few lookahead windows
// of that point instead of simulating on to the 4-hour horizon. Stopping
// early cuts only the tail after the last query, so the measured outcome
// is pinned to the value the run gives when it runs to the horizon.
func TestDiscoveryShardedStopsAtLastQuery(t *testing.T) {
	spec := DiscoverySpec{R: 20, Noise: true, Queries: 50, Seed: 3, Shards: 4}
	sharded, err := RunDiscovery(spec)
	if err != nil {
		t.Fatal(err)
	}
	spec.Shards = 1
	serial, err := RunDiscovery(spec)
	if err != nil {
		t.Fatal(err)
	}
	if limit := serial.Steps * 11 / 10; sharded.Steps > limit {
		t.Fatalf("sharded discovery ran %d steps, serial %d: over the 1.1× bound %d (halt overshoot)",
			sharded.Steps, serial.Steps, limit)
	}
	const want = "n=50 mean=0x1.d56a35686ca61p+03 sd=0x1.37bd9c1b5f6bap+01 min=0x1.5c23f67f4dbep+03 p50=0x1.da8c7f3493858p+03 p95=0x1.3580772bb087fp+04 max=0x1.47f763e4abe6ap+04 timeouts=0 walk=0x0p+00"
	if got := discoveryLatencyFingerprint(sharded); got != want {
		t.Fatalf("sharded discovery outcome moved:\n got %s\nwant %s", got, want)
	}
}
