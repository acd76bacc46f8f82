package main

import (
	"cmp"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"time"

	"repro/internal/pmem"
)

// ladder replays one closed-loop op stream down the stack's rungs
// (L0 core index, L1 shard, L2 shard.Deferred, L3 commit pipeline, L4
// wire). Every rung replays the same kinds and keys, with fresh insert
// ids, from a collected heap; on a hash store the keys a rung inserted
// are deleted after it, untimed (see store.cleanup). A layer's self
// time is the difference between adjacent rungs.
type ladder struct {
	st      *store
	seed    int64
	n       int // operations per worker
	insBase uint64

	attempted, failed int64
}

// rungRun is one replay's outcome.
type rungRun struct {
	ns          float64 // wall time per operation per worker
	ops, writes int64
	inserts     int64
	pm          pmem.Stats
	writeNs     float64 // mean timed write call
}

func (l *ladder) run(f func(i int) front, timed bool) rungRun {
	settleHeap()
	ws := newWorkers(l.st, l.seed, l.insBase)
	s0 := l.st.stats()
	every := 0
	if timed {
		every = 1
	}
	el := closedLoop(ws, f, time.Now(), 0, l.n, every)
	r := rungRun{pm: l.st.stats().Sub(s0)}
	var timedWrites float64
	for _, wk := range ws {
		r.ops += wk.ops
		r.writes += wk.writes
		r.inserts += int64(len(wk.insertedIDs))
		l.failed += wk.failed
		for _, x := range wk.lat {
			if x.kind.write() {
				r.writeNs += float64(x.ns)
				timedWrites++
			}
		}
	}
	l.attempted += r.ops
	r.writeNs = ratio(r.writeNs, timedWrites)
	r.ns = float64(el.Nanoseconds()) * numWorkers / float64(max(r.ops, 1))
	l.insBase = nextBase(ws)
	l.st.cleanup(ws)
	return r
}

// medianRun returns the replay with the median time.
func medianRun(rs []rungRun) rungRun {
	slices.SortFunc(rs, func(a, b rungRun) int { return cmp.Compare(a.ns, b.ns) })
	return rs[len(rs)/2]
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// nextBase is the first insert id no worker of ws has used.
func nextBase(ws []*worker) uint64 {
	var k uint64
	for _, wk := range ws {
		k = max(k, wk.ids.k)
	}
	return ws[0].ids.base + k*numWorkers
}

// spanDir is where the traced run writes its spans, relative to the
// checkout the benchmark runs from.
const spanDir = ".bench_build/spans"

// traced is the traced run. It runs the nominal open-loop rate
// untraced to read the generator, round trips, runtime and shard
// balance; climbs the open-loop rate ladder for open.max_qps; replays
// rung L1 alternately on the store and on a twin
// whose persistence delays are zero, which splits simulated persistence
// from software cost; then replays the same op stream down the rest of
// the ladder, once with the index wrappers and spans on.
func traced(w *workload, seed int64, d time.Duration, res *result, f *faults) error {
	log := newSpanLog(1 << 19)
	wrap := newWrapper(log)
	e, err := setUp(w, true, wrap, f)
	if err != nil {
		return err
	}
	ws := newWorkers(e.st, seed, uint64(w.loadN))

	e.st.loadReport()
	settleHeap()
	rt0 := readRuntime()
	nom := e.open(ws, w.ladder[0], d*3/10, seed)
	rt := rt0.to(readRuntime())
	imbalance := e.st.loadReport().Imbalance()
	maxQPS := climb(e, w, ws, d*3/10, seed)

	lad := &ladder{st: e.st, seed: seed + 1, n: w.replayOps, insBase: nextBase(ws)}
	// L1 on the store and on a twin whose persistence delays are zero
	// (and whose wrappers stay off too), alternated three times and each
	// taken at its median, so that a slow stretch of the VM lands on
	// both sides of pmem.persist_share.
	settleHeap()
	twin, err := newStore(w, false, newWrapper(log), f)
	if err != nil {
		return err
	}
	if err := twin.preload(); err != nil {
		return err
	}
	tl := &ladder{st: twin, seed: seed + 1, n: w.replayOps, insBase: lad.insBase}
	// On a hash store, whose replays delete what they insert, every
	// replay reuses the same keys, and a first, discarded, replay grows
	// both tables' overflow chains for them, so the two tables do the
	// same work.
	base := lad.insBase
	replayL1 := func(l *ladder) rungRun {
		if w.hash {
			l.insBase = base
		}
		return l.run(func(int) front { return shardFront{} }, false)
	}
	var l1s, frees []rungRun
	for i := 0; i < 4; i++ {
		l1, free := replayL1(lad), replayL1(tl)
		if i > 0 {
			l1s, frees = append(l1s, l1), append(frees, free)
		}
	}
	twin.verify(nil)
	twin.release()
	l1, free := medianRun(l1s), medianRun(frees)

	wrap.on.Store(true)
	tf := &tracedFront{log: log}
	l1traced := lad.run(func(int) front { return tf }, false)
	wrap.on.Store(false)

	l0 := lad.run(func(int) front { return indexFront{} }, false)
	l1timed := lad.run(func(int) front { return shardFront{} }, true)
	var group [3]rungRun
	for i, b := range []int{1, 8, 64} {
		g := newGroupFront(e.st, b)
		group[i] = lad.run(func(int) front { return g }, true)
	}
	cf := newCommitFront(e.st, 32)
	l3 := lad.run(func(int) front { return cf }, true)
	if err := cf.close(); err != nil {
		return fmt.Errorf("commit pipeline close: %w", err)
	}
	var l4 rungRun
	if e.srv != nil {
		l4 = lad.run(func(int) front { return wireFront{conns: e.conns} }, false)
	}
	if err := e.shutdown(); err != nil {
		return err
	}
	e.st.verify(ws)
	e.st.release()
	if err := log.write(filepath.Join(spanDir, w.name+".tsv")); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: spans not written: %v\n", err)
	}

	res.Attempted = nom.attempts + lad.attempted + tl.attempted
	res.Failed = nom.failed + lad.failed + tl.failed

	// Persistence counts come from an L1 replay with fresh keys.
	res.set("pmem.clwb_per_write", ratio(float64(l1timed.pm.Clwb), float64(l1timed.writes)), "count")
	res.set("pmem.fence_per_write", ratio(float64(l1timed.pm.Fence), float64(l1timed.writes)), "count")
	res.set("pmem.persist_share", 1-ratio(free.ns, l1.ns), "ratio")
	res.set("pmem.alloc_bytes_per_insert", ratio(float64(l1timed.pm.AllocBytes), float64(l1timed.inserts)), "B")

	for _, k := range []struct {
		name string
		kind opKind
	}{{"index.lookup_ns", opRead}, {"index.insert_ns", opInsert}, {"index.update_ns", opUpdate}, {"index.scan_ns", opScan}} {
		v, _ := wrap.meanNs(k.kind)
		res.set(k.name, v, "ns")
	}
	_, scans := wrap.meanNs(opScan)
	visited := float64(wrap.visited.Load())
	res.set("index.scan_visited_per_call", ratio(visited, float64(scans)), "count")

	self := func(kinds ...opKind) float64 {
		var parent, child float64
		var calls int64
		for _, k := range kinds {
			pm, pn := tf.meanNs(k)
			parent += pm * float64(pn)
			calls += pn
			child += float64(wrap.ns[k].Load())
		}
		return ratio(parent-child, float64(calls))
	}
	var returned int64
	for _, t := range tf.per {
		returned += t.returned
	}
	res.set("shard.lookup_self_ns", self(opRead), "ns")
	res.set("shard.write_self_ns", self(opInsert, opUpdate), "ns")
	res.set("shard.scan_self_ns", self(opScan), "ns")
	res.set("shard.scan_visited_per_returned", ratio(visited, float64(returned)), "ratio")
	res.set("shard.imbalance", imbalance, "ratio")

	res.set("group.l1_write_ns", l1timed.writeNs, "ns")
	res.set("group.write_ns.b1", group[0].writeNs, "ns")
	res.set("group.write_ns.b8", group[1].writeNs, "ns")
	res.set("group.write_ns.b64", group[2].writeNs, "ns")

	ack := merge(cf.ack[:]...)
	var depth float64
	var nq int
	for i := range cf.nq {
		depth += cf.depth[i]
		nq += cf.nq[i]
	}
	res.set("commit.ack_p50_us", ack.pctUs(0.50), "us")
	res.set("commit.ack_p99_us", ack.pctUs(0.99), "us")
	res.set("commit.queue_depth", ratio(depth, float64(nq)), "count")

	res.set("server.rtt_p50_us", nom.pct(nom.rtt, 0.50, anyKind), "us")
	res.set("server.rtt_p99_us", nom.pct(nom.rtt, 0.99, anyKind), "us")
	res.set("server.self_share", 1-ratio(l1.ns, l4.ns), "ratio")
	if l4.ns == 0 {
		res.set("server.self_share", 0, "ratio")
	}

	res.set("runtime.gc_cpu_frac", rt.gcCPUFrac, "ratio")
	res.set("runtime.sched_lat_p99_us", rt.schedP99Us, "us")
	res.set("runtime.alloc_bytes_per_op", ratio(float64(rt.allocBytes), float64(nom.attempts)), "B")

	res.set("open.read_p50_us", nom.pct(nom.ops, 0.50, readKind), "us")
	res.set("open.read_p99_us", nom.pct(nom.ops, 0.99, readKind), "us")
	res.set("open.write_p50_us", nom.pct(nom.ops, 0.50, writeKind), "us")
	res.set("open.write_p99_us", nom.pct(nom.ops, 0.99, writeKind), "us")
	res.set("gen.lag_p50_us", nom.pct(nom.lag, 0.50, anyKind), "us")
	res.set("gen.lag_p99_us", nom.pct(nom.lag, 0.99, anyKind), "us")
	res.set("gen.late_frac", nom.lateFrac(), "ratio")
	res.set("open.max_qps", maxQPS, "1/s")

	res.set("ladder.l0_ns", l0.ns, "ns")
	res.set("ladder.l1_ns", l1.ns, "ns")
	res.set("ladder.l2_ns", group[2].ns, "ns")
	res.set("ladder.l3_ns", l3.ns, "ns")
	res.set("ladder.l4_ns", l4.ns, "ns")
	res.set("trace.overhead", 1-ratio(l1.ns, l1traced.ns), "ratio")
	res.set("trace.spans_dropped", float64(log.dropped.Load()), "count")
	return nil
}

// climb runs the open-loop rate ladder for d, every rate for the same
// time and from a collected heap, and returns the rate at which its
// score crosses the workload's latency limit (see maxQPS). The ladder
// probes past saturation, so its operations are not counted in the
// run's attempted and failed; a failed operation fails its rate, and a
// wrong answer still fails the run.
func climb(e *env, w *workload, ws []*worker, d time.Duration, seed int64) float64 {
	step := d / time.Duration(len(w.ladder))
	scores := make([]float64, len(w.ladder))
	pass := -1
	for i, rate := range w.ladder {
		settleHeap()
		ru := e.open(ws, rate, step, seed+int64(i))
		scores[i] = ru.score()
		meets := ru.meets(w.p99Limit)
		if meets {
			pass = i
		}
		fmt.Fprintf(os.Stderr, "perfbench: %s: rate %.0f/s: p50 %.1fus p99 %.1fus, gen lag p50 %.1fus p99 %.1fus late %.4f, failed %d, meets %v\n",
			w.name, rate, ru.pct(ru.ops, 0.5, anyKind), ru.pct(ru.ops, 0.99, anyKind),
			ru.pct(ru.lag, 0.5, anyKind), ru.pct(ru.lag, 0.99, anyKind), ru.lateFrac(), ru.failed, meets)
	}
	return maxQPS(w, scores, pass)
}

// maxQPS is the rate at which the ladder's score (see rung.score)
// crosses the latency limit: the highest rate that passed, plus the
// share of the step to the next rate given by interpolating the log of
// the score between the two. A knee that sits near a ladder rate then
// moves max_qps a little, not by a whole step.
func maxQPS(w *workload, scores []float64, pass int) float64 {
	if pass < 0 {
		return 0
	}
	lo := w.ladder[pass]
	if pass == len(w.ladder)-1 {
		return lo
	}
	lim := float64(w.p99Limit) / 1e3
	a, b := scores[pass], scores[pass+1]
	frac := 0.0
	if b > lim && a > 0 {
		frac = math.Log(lim/a) / math.Log(b/a)
	}
	return lo + max(0, min(1, frac))*(w.ladder[pass+1]-lo)
}
