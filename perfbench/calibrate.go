package main

import (
	"container/heap"
	"encoding/binary"
	"hash/fnv"
	"runtime"
	"sort"
	"strconv"
	"time"
)

// The end-to-end wall times are rescaled to a reference host speed. On a
// shared host the speed of the same code drifts by ±15% over minutes, as
// neighbours come and go, and that drift swamps the run-to-run spread of
// the simulator itself. So after every timed repetition the benchmark also
// times a fixed reference job that uses none of the simulator's code, and
// reports each wall time multiplied by refNominal over the run's median
// reference time: seconds on a host that runs the reference job in
// refNominal. The raw times stay in the metadata line.

// refNominal is the reference job's time on a quiet 2-core container.
const refNominal = 150 * time.Millisecond

// refRounds sizes the reference job to about refNominal.
const refRounds = 6

// calibrate settles the collector, so the repetition's garbage costs the
// job nothing, and times one reference job in seconds.
func calibrate() float64 {
	runtime.GC()
	start := time.Now()
	refSink = referenceJob(refRounds)
	return time.Since(start).Seconds()
}

// hostScale turns raw wall times into reference-host seconds.
func hostScale(refS []float64) float64 {
	return refNominal.Seconds() / median(refS)
}

var refSink uint64

// referenceJob does the kinds of work the simulator's event loop does:
// small records and byte slices allocated and dropped, string keys built,
// map inserts and lookups, a binary heap of timed events, sorting and
// hashing. Its work is the same in every run and on every commit.
func referenceJob(rounds int) uint64 {
	x := uint64(0x9e3779b97f4a7c15)
	next := func() uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	var sum uint64
	for r := 0; r < rounds; r++ {
		index := make(map[string]*refEvent)
		q := &refQueue{}
		var keys []string
		for i := 0; i < 20000; i++ {
			e := &refEvent{at: next() % 1_000_000, body: make([]byte, 32+next()%224)}
			binary.LittleEndian.PutUint64(e.id[:], next())
			binary.LittleEndian.PutUint64(e.body, e.at)
			key := "urn:jxta:uuid-" + strconv.FormatUint(next()%50000, 16)
			index[key] = e
			keys = append(keys, key)
			heap.Push(q, e)
			if i%3 == 2 {
				sum += heap.Pop(q).(*refEvent).at
			}
		}
		sort.Strings(keys)
		h := fnv.New64a()
		for _, k := range keys {
			h.Write(index[k].body[:8])
		}
		sum += h.Sum64()
	}
	return sum
}

type refEvent struct {
	at   uint64
	id   [16]byte
	body []byte
}

type refQueue []*refEvent

func (q refQueue) Len() int           { return len(q) }
func (q refQueue) Less(i, j int) bool { return q[i].at < q[j].at }
func (q refQueue) Swap(i, j int)      { q[i], q[j] = q[j], q[i] }
func (q *refQueue) Push(x any)        { *q = append(*q, x.(*refEvent)) }
func (q *refQueue) Pop() any {
	old := *q
	e := old[len(old)-1]
	*q = old[:len(old)-1]
	return e
}
