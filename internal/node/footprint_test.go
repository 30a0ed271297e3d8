package node

import (
	"fmt"
	"testing"
	"time"

	"jxta/internal/advstore"
	"jxta/internal/ids"
	"jxta/internal/metrics"
	"jxta/internal/netmodel"
	"jxta/internal/peerview"
	"jxta/internal/simnet"
	"jxta/internal/transport"
)

// maxEdgeBuildAllocs is the allocation ceiling for assembling one lean
// simulated edge. Services are small by construction: their maps stay nil
// until first written and their handler tables are slices, so an eager
// make(map) in any constructor (48 bytes per idle edge, times a million
// edges) shows up here as a failure rather than as quiet heap growth. The
// ceiling is the measured count.
const maxEdgeBuildAllocs = 133

// TestEdgeBuildAllocs pins the number of allocations node.New makes for
// one edge in lean-metrics mode, the configuration large simulations use.
func TestEdgeBuildAllocs(t *testing.T) {
	const runs = 20
	sched := simnet.NewScheduler(1)
	net := transport.NewNetwork(sched, netmodel.Uniform(time.Millisecond))
	reg := metrics.NewRegistry()
	store := advstore.New()
	seeds := []peerview.Seed{{ID: ids.FromName(ids.KindPeer, "rdv"), Addr: "sim://rdv"}}
	// Environments and transports are made up front so only node.New is
	// measured; AllocsPerRun calls the function runs+1 times.
	type slot struct {
		e  *simnet.NodeEnv
		tr transport.Transport
	}
	slots := make([]slot, runs+1)
	for i := range slots {
		name := fmt.Sprintf("edge%d", i)
		tr, err := net.Attach(name, netmodel.Rennes)
		if err != nil {
			t.Fatal(err)
		}
		slots[i] = slot{e: sched.NewEnv(name), tr: tr}
	}
	next := 0
	allocs := testing.AllocsPerRun(runs, func() {
		s := slots[next]
		next++
		New(s.e, s.tr, Config{Role: Edge, Seeds: seeds, Metrics: reg, AdvStore: store})
	})
	t.Logf("node.New(edge, lean) = %.0f allocs", allocs)
	if allocs > maxEdgeBuildAllocs {
		t.Fatalf("node.New(edge, lean) made %.0f allocations, ceiling %d", allocs, maxEdgeBuildAllocs)
	}
}
