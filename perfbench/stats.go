package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"slices"
	"sync/atomic"
	"time"
)

// lats collects latency samples in nanoseconds. One goroutine owns each
// lats; merge combines them after the owners finished.
type lats []int64

func (l *lats) add(d time.Duration) { *l = append(*l, int64(d)) }

func merge(parts ...lats) lats {
	var out lats
	for _, p := range parts {
		out = append(out, p...)
	}
	slices.Sort(out)
	return out
}

// pctUs returns the p-th percentile (0 < p < 1) of sorted samples in
// microseconds, by nearest rank; 0 when there are no samples.
func (l lats) pctUs(p float64) float64 {
	if len(l) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(l)))) - 1
	i = max(0, min(i, len(l)-1))
	return float64(l[i]) / 1e3
}

// runtimeSnap is a runtime/metrics snapshot for per-phase deltas.
type runtimeSnap struct {
	gcCPU, totalCPU float64
	allocBytes      uint64
	sched           *metrics.Float64Histogram
}

var runtimeNames = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/heap/allocs:bytes",
	"/sched/latencies:seconds",
}

func readRuntime() runtimeSnap {
	s := make([]metrics.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		s[i].Name = n
	}
	metrics.Read(s)
	h := s[3].Value.Float64Histogram()
	return runtimeSnap{
		gcCPU:      s[0].Value.Float64(),
		totalCPU:   s[1].Value.Float64(),
		allocBytes: s[2].Value.Uint64(),
		sched: &metrics.Float64Histogram{
			Counts:  slices.Clone(h.Counts),
			Buckets: h.Buckets,
		},
	}
}

// runtimeDelta is what the runtime did between two snapshots.
type runtimeDelta struct {
	gcCPUFrac  float64
	schedP99Us float64
	allocBytes uint64
}

func (a runtimeSnap) to(b runtimeSnap) runtimeDelta {
	d := runtimeDelta{
		gcCPUFrac:  ratio(b.gcCPU-a.gcCPU, b.totalCPU-a.totalCPU),
		allocBytes: b.allocBytes - a.allocBytes,
	}
	counts := make([]uint64, len(b.sched.Counts))
	var samples uint64
	for i := range counts {
		counts[i] = b.sched.Counts[i] - a.sched.Counts[i]
		samples += counts[i]
	}
	if samples > 0 {
		rank := uint64(math.Ceil(0.99 * float64(samples)))
		var seen uint64
		for i, c := range counts {
			seen += c
			if seen >= rank {
				// Upper edge of the bucket holding the rank; the last
				// bucket is open-ended, so fall back to its lower edge.
				edge := b.sched.Buckets[i+1]
				if math.IsInf(edge, 1) {
					edge = b.sched.Buckets[i]
				}
				d.schedP99Us = edge * 1e6
				break
			}
		}
	}
	return d
}

// heapPeak samples the Go heap until stopped and keeps the largest
// reading. It reads the live heap the last collection marked, not the
// bytes in use, which swing with where the sample falls between two
// collections.
type heapPeak struct {
	peak atomic.Uint64
	stop chan struct{}
	done chan struct{}
}

func heapLive() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

func startHeapPeak() *heapPeak {
	h := &heapPeak{stop: make(chan struct{}), done: make(chan struct{})}
	h.peak.Store(heapLive())
	go func() {
		defer close(h.done)
		t := time.NewTicker(10 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-h.stop:
				return
			case <-t.C:
				if v := heapLive(); v > h.peak.Load() {
					h.peak.Store(v)
				}
			}
		}
	}()
	return h
}

// end stops the sampler and returns the peak in MiB.
func (h *heapPeak) end() float64 {
	close(h.stop)
	<-h.done
	if v := heapLive(); v > h.peak.Load() {
		h.peak.Store(v)
	}
	return float64(h.peak.Load()) / (1 << 20)
}

// settleHeap collects garbage left by earlier phases so that heap
// readings and GC cost belong to the phase about to start.
func settleHeap() { runtime.GC() }
