package main

import (
	"bytes"
	"encoding/json"
	"os"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"jxta/internal/advertisement"
	"jxta/internal/message"
)

// benchmarkFile is the part of BENCHMARK.json the smoke test checks.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []declared `json:"end_to_end"`
	PerLayer []declared `json:"per_layer"`
}

type declared struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func loadBenchmark(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(b, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// TestSmokeEmitsDeclaredMetrics runs every declared workload at tiny size,
// untraced and traced, and checks that the result passes its checks and
// carries exactly the declared metrics with their units.
func TestSmokeEmitsDeclaredMetrics(t *testing.T) {
	bf := loadBenchmark(t)
	if len(bf.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json declares %d workloads, the benchmark has %d", len(bf.Workloads), len(workloads))
	}
	for _, bw := range bf.Workloads {
		w, ok := workloadByName(bw.Name)
		if !ok {
			t.Errorf("workload %s is declared but not implemented", bw.Name)
			continue
		}
		for _, traced := range []bool{false, true} {
			res, info, err := measure(w, w.tiny, 7, 0, traced)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d problems=%v",
					w.name, traced, res.Correct, res.Attempted, res.Failed, info.Problems)
			}
			want := bf.EndToEnd
			if traced {
				want = bf.PerLayer
			}
			names := make(map[string]bool)
			for _, d := range want {
				names[d.Name] = true
				m, ok := res.Metrics[d.Name]
				switch {
				case !ok:
					t.Errorf("%s traced=%v: metric %s missing", w.name, traced, d.Name)
				case m.Unit != d.Unit:
					t.Errorf("%s traced=%v: metric %s has unit %q, declared %q", w.name, traced, d.Name, m.Unit, d.Unit)
				}
			}
			for name := range res.Metrics {
				if !names[name] {
					t.Errorf("%s traced=%v: metric %s is emitted but not declared", w.name, traced, name)
				}
			}
			if !traced {
				for _, d := range want {
					if res.Metrics[d.Name].Value <= 0 {
						t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.name, d.Name, res.Metrics[d.Name].Value)
					}
				}
			}
		}
	}
}

func TestRunPrintsResultLast(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"--workload", "no-such-workload"}, &out, &errOut); code == 0 {
		t.Fatal("unknown workload accepted")
	}
	if out.Len() != 0 {
		t.Fatalf("failed run printed a result: %q", out.String())
	}
}

func TestCheckAnswerRejectsWrongAdvertisement(t *testing.T) {
	right := []advertisement.Advertisement{resourceAdv("target-1")}
	if p := checkAnswer("target-1", right); p != "" {
		t.Fatalf("right answer rejected: %s", p)
	}
	for _, advs := range [][]advertisement.Advertisement{
		nil,
		{resourceAdv("target-2")},
		{&advertisement.Resource{ResID: resourceAdv("other").ResID, Name: "target-1"}},
	} {
		if checkAnswer("target-1", advs) == "" {
			t.Errorf("wrong answer %v accepted", advs)
		}
	}
}

func TestLeaseCheckRejectsUnleasedEdge(t *testing.T) {
	w, _ := workloadByName("edge-lease-sharded")
	inst, err := w.tiny.setup(3, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := inst.run(nil); err != nil {
		t.Fatal(err)
	}
	if out := inst.outcome(); out.failed != 0 || len(out.problems) != 0 {
		t.Fatalf("healthy run reported failed=%d %v", out.failed, out.problems)
	}
	inst.overlay().StopEdge(0) // cancels the lease
	out := inst.outcome()
	if out.failed != 1 || len(out.problems) != 1 {
		t.Fatalf("unleased edge not caught: failed=%d problems=%v", out.failed, out.problems)
	}
}

func TestPeerviewCountsUnlearnedMembers(t *testing.T) {
	w, _ := workloadByName("peerview-converge")
	inst, err := w.tiny.setup(3, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Never started: no rendezvous learned anyone.
	out := inst.outcome()
	if out.attempted == 0 || out.failed != out.attempted || out.coverage != 0 {
		t.Fatalf("cold tier: attempted=%d failed=%d coverage=%v", out.attempted, out.failed, out.coverage)
	}
	if err := inst.run(nil); err != nil {
		t.Fatal(err)
	}
	out = inst.outcome()
	if out.failed != 0 || out.coverage != 1 || len(out.latencyMs) != int(out.attempted) {
		t.Fatalf("converged tier: failed=%d coverage=%v samples=%d", out.failed, out.coverage, len(out.latencyMs))
	}
}

func TestReplayAndObserverChecksRejectMismatch(t *testing.T) {
	ok := outcome{latencyMs: []float64{1}}
	base := rep{events: 10, msgs: 5, bytes: 100, out: ok}
	if p := checkRuns(base, []rep{base}, []rep{base}); len(p) != 0 {
		t.Fatalf("identical runs rejected: %v", p)
	}
	drift := base
	drift.bytes++
	if p := checkRuns(base, []rep{drift}, nil); len(p) != 1 || !strings.Contains(p[0], "replay") {
		t.Fatalf("replay mismatch not caught: %v", p)
	}
	if p := checkRuns(base, nil, []rep{drift}); len(p) != 1 || !strings.Contains(p[0], "traced run differs") {
		t.Fatalf("observer effect not caught: %v", p)
	}
	empty := base
	empty.out = outcome{}
	if p := checkRuns(base, []rep{empty}, nil); len(p) != 1 {
		t.Fatalf("run without timed operations not caught: %v", p)
	}
}

func TestProfileChargesInnermostJxtaFrame(t *testing.T) {
	m := message.New().AddString("ns", "name", strings.Repeat("payload", 64))
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("profiler busy:", err)
	}
	for start := time.Now(); time.Since(start) < 300*time.Millisecond; {
		for range 100 {
			sink = m.Marshal()
		}
	}
	pprof.StopCPUProfile()
	a := newAttribution()
	if err := a.add(buf.Bytes()); err != nil {
		t.Fatal(err)
	}
	if a.total == 0 {
		t.Skip("no samples collected")
	}
	var sum int64
	for _, n := range a.rows {
		sum += n
	}
	if sum != a.total {
		t.Fatalf("rows sum to %d of %d samples", sum, a.total)
	}
	// Allocation and copying below Marshal are charged to message; only
	// the loop itself and the collector's background goroutines land
	// elsewhere.
	for row := range a.rows {
		if row != "message" && row != otherRow && row != gcBgRow {
			t.Errorf("samples charged to %s", row)
		}
	}
	if a.rows["message"] == 0 {
		t.Fatalf("message.Marshal loop not charged to message: rows %v", a.rows)
	}
	if err := a.add([]byte("not a profile")); err == nil {
		t.Fatal("garbage profile accepted")
	}
}

func TestRowOfChargesInnermostJxtaFrame(t *testing.T) {
	p := &profile{
		strings:   []string{"", "runtime.mallocgc", "jxta/internal/message.(*Message).Clone", "jxta/internal/transport.(*Sim).Send", "runtime.gcBgMarkWorker", "main.main"},
		functions: map[uint64]int64{1: 1, 2: 2, 3: 3, 4: 4, 5: 5},
		// Location 10 holds Clone inlined into Send: innermost first.
		locations: map[uint64][]uint64{10: {2, 3}, 11: {1}, 12: {4}, 13: {5}, 14: {3}},
	}
	for _, c := range []struct {
		stack []uint64
		want  string
	}{
		{[]uint64{11, 10, 13}, "message"},
		{[]uint64{11, 14, 13}, "transport"},
		{[]uint64{11, 12}, gcBgRow},
		{[]uint64{11, 13}, otherRow},
	} {
		if got := p.rowOf(c.stack); got != c.want {
			t.Errorf("rowOf(%v) = %s, want %s", c.stack, got, c.want)
		}
	}
}

func TestPackageOf(t *testing.T) {
	for fn, want := range map[string]string{
		"jxta/internal/simnet.(*Scheduler).Run":     "simnet",
		"jxta/internal/document.Unmarshal":          "document",
		"jxta/internal/transport.(*Sim).Send.func1": "transport",
	} {
		if got := packageOf(fn); got != want {
			t.Errorf("packageOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	if got := median(xs); got != 2.5 {
		t.Fatalf("median = %v", got)
	}
	if got := quantile(xs, 1); got != 4 {
		t.Fatalf("max = %v", got)
	}
	if xs[0] != 4 {
		t.Fatal("quantile reordered its input")
	}
}
