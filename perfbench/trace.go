package main

import (
	"sync"
	"sync/atomic"
	"time"

	"jxta/internal/deploy"
	"jxta/internal/discovery"
	"jxta/internal/endpoint"
	"jxta/internal/message"
	"jxta/internal/peerview"
	"jxta/internal/rendezvous"
	"jxta/internal/resolver"
	"jxta/internal/transport"
)

// tracer records one traced repetition: wall-clock spans around the
// benchmark's own calls into the program, and a transport observer. A nil
// tracer records nothing, so untraced repetitions run the same code paths
// without a single extra clock read.
type tracer struct {
	spans     map[string]time.Duration
	queryUs   []float64
	publishUs []float64
	obs       *observer
}

func newTracer() *tracer {
	return &tracer{spans: make(map[string]time.Duration), obs: &observer{}}
}

// span runs fn, charging its wall time to the named span.
func (t *tracer) span(name string, fn func()) {
	if t == nil {
		fn()
		return
	}
	start := time.Now()
	fn()
	t.spans[name] += time.Since(start)
}

// publish runs one Publish call as a span.
func (t *tracer) publish(fn func()) {
	if t == nil {
		fn()
		return
	}
	start := time.Now()
	fn()
	t.publishUs = append(t.publishUs, float64(time.Since(start))/float64(time.Microsecond))
}

// queryStart opens a query span; queryDone closes it in the query's callback.
func (t *tracer) queryStart() time.Time {
	if t == nil {
		return time.Time{}
	}
	return time.Now()
}

func (t *tracer) queryDone(start time.Time) {
	if t == nil {
		return
	}
	t.queryUs = append(t.queryUs, float64(time.Since(start))/float64(time.Microsecond))
}

// serviceGroups maps endpoint services to the layer names the per-layer
// metrics use. Sends to any other service count under "other". The
// endpoint's own services (route resolution and hello) have unexported
// names in package endpoint, so they are spelled out here.
var serviceGroups = []struct {
	name     string
	services []string
}{
	{"peerview", []string{peerview.ServiceName}},
	{"rendezvous", []string{rendezvous.LeaseService}},
	{"walk", []string{rendezvous.WalkService}},
	{"resolver", []string{resolver.ServiceName}},
	{"srdi", []string{discovery.SRDIService}},
	{"endpoint", []string{"erp", "ep.hello"}},
}

const otherGroup = 6 // index past serviceGroups

func groupOf(service string) int {
	for i, g := range serviceGroups {
		for _, s := range g.services {
			if s == service {
				return i
			}
		}
	}
	return otherGroup
}

// captureLimit bounds the wire messages kept per service group for the
// codec microbenchmarks.
const captureLimit = 16

// observer is the transport.Network.OnSend hook. Under the sharded engine
// it runs on shard goroutines, so its counters are atomic and the capture
// list is locked.
type observer struct {
	msgs  [otherGroup + 1]atomic.Uint64
	bytes [otherGroup + 1]atomic.Uint64

	mu       sync.Mutex
	captured [otherGroup + 1][]*message.Message
	kept     [otherGroup + 1]atomic.Int32 // len(captured[g]), readable without mu
}

func (ob *observer) onSend(_, _ transport.Addr, m *message.Message) {
	g := groupOf(endpoint.ServiceOf(m))
	ob.msgs[g].Add(1)
	ob.bytes[g].Add(uint64(m.Size()))
	if ob.kept[g].Load() >= captureLimit {
		return
	}
	ob.mu.Lock()
	if len(ob.captured[g]) < captureLimit {
		ob.captured[g] = append(ob.captured[g], m.Clone())
		ob.kept[g].Store(int32(len(ob.captured[g])))
	}
	ob.mu.Unlock()
}

// install hooks the observer into the overlay's fabric.
func (t *tracer) install(o *deploy.Overlay) {
	if t != nil {
		o.Net.OnSend = t.obs.onSend
	}
}

// messages returns every captured wire message.
func (ob *observer) messages() []*message.Message {
	ob.mu.Lock()
	defer ob.mu.Unlock()
	var out []*message.Message
	for _, ms := range ob.captured {
		out = append(out, ms...)
	}
	return out
}
