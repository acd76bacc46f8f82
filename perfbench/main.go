// Command perfbench is the repository's benchmark. It runs one named
// workload against the RECIPE stack in-process, through the public
// constructors (shard.NewHash, shard.NewOrdered, and server.New on a
// loopback listener for the wire workloads), checks every answer
// against a ledger of acknowledged writes, and prints one JSON object
// as its last line of output.
//
//	perfbench --workload wire-read-zipf --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it
// runs the traced pass and reports the per-layer metrics. RATIONALE.md
// gives the reason for each workload and metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"slices"
	"time"
)

// reps is how many times a run builds, loads and measures a fresh
// store; every end-to-end metric is the median over them.
const reps = 3

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func (r *result) set(name string, v float64, unit string) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

func main() {
	name := flag.String("workload", "", "workload to run")
	seed := flag.Int64("seed", 1, "seed for the workload's inputs")
	secs := flag.Int("seconds", 20, "measured seconds")
	trace := flag.Int("trace", 0, "1 runs the traced pass and reports per-layer metrics")
	flag.Parse()
	w, err := workloadByName(*name)
	if err != nil || *secs < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	res := &result{Metrics: map[string]metric{}}
	f := &faults{}
	d := time.Duration(*secs) * time.Second
	if *trace == 1 {
		err = traced(w, *seed, d, res, f)
	} else {
		err = measure(w, *seed, d, res, f)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		os.Exit(1)
	}
	res.Correct = f.n.Load() == 0
	if !res.Correct {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %d wrong results; first: %s\n", w.name, f.n.Load(), *f.first.Load())
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
	if !res.Correct {
		os.Exit(1)
	}
}

// env is a built store, plus the server and connections for a wire
// workload.
type env struct {
	st    *store
	srv   *wireServer
	conns []*wireConn
}

func setUp(w *workload, delays bool, wrap *wrapper, f *faults) (*env, error) {
	st, err := newStore(w, delays, wrap, f)
	if err != nil {
		return nil, err
	}
	if err := st.preload(); err != nil {
		st.release()
		return nil, err
	}
	e := &env{st: st}
	if !w.wire {
		return e, nil
	}
	if e.srv, err = startServer(st); err != nil {
		st.release()
		return nil, err
	}
	if e.conns, err = dialAll(e.srv.addr); err != nil {
		e.srv.stop()
		st.release()
		return nil, err
	}
	return e, nil
}

// shutdown closes the connections and drains the server. Every request
// was answered before, so the drain has nothing left to settle.
func (e *env) shutdown() error {
	if e.srv == nil {
		return nil
	}
	closeAll(e.conns)
	srv := e.srv
	e.srv = nil
	return srv.stop()
}

// front is the closed-loop entry point: the shard front-end, or the
// wire with one request outstanding per connection.
func (e *env) front() front {
	if e.srv != nil {
		return wireFront{conns: e.conns}
	}
	return shardFront{}
}

// hashSlice is the longest open-loop stretch on a hash store between
// two cleanups: short enough that no ladder rate inserts the half
// million keys that would take P-CLHT's 1M-key table to its next
// doubling.
const hashSlice = 250 * time.Millisecond

// open runs one open-loop phase, with one P more than CPUs: pacing
// threads hold their P while they sleep (see waitUntil), and the spare
// P lets the collector and, on the wire, the server's goroutines run
// meanwhile. On a hash store the phase runs in slices with a cleanup
// after each.
func (e *env) open(ws []*worker, rate float64, dur time.Duration, seed int64) *rung {
	prev := runtime.GOMAXPROCS(runtime.NumCPU() + 1)
	defer runtime.GOMAXPROCS(prev)
	if e.srv != nil {
		return openWire(e.conns, ws, rate, dur, seed)
	}
	n := 1
	if e.st.h != nil {
		n = int((dur + hashSlice - 1) / hashSlice)
	}
	r := &rung{dur: dur}
	for i := 0; i < n; i++ {
		p := openLib(ws, shardFront{}, rate, dur/time.Duration(n), seed*1009+int64(i))
		e.st.cleanup(ws)
		r.addAt(p, int64(i)*int64(dur/time.Duration(n)))
	}
	return r
}

func sum(ws []*worker, f func(*worker) int64) int64 {
	var n int64
	for _, wk := range ws {
		n += f(wk)
	}
	return n
}

// repResult is one repetition's end-to-end figures.
type repResult struct {
	setup, opsPerS, mem, spaceAmp float64
	rd, wr                        lats // closed-loop call timings
	attempted, failed             int64
}

// measure is the untraced run: reps repetitions of rep, each on a
// fresh store, reported as medians.
func measure(w *workload, seed int64, d time.Duration, res *result, f *faults) error {
	var rs []repResult
	for i := 0; i < reps; i++ {
		r, err := rep(w, seed*reps+int64(i), d/reps, f)
		if err != nil {
			return err
		}
		rs = append(rs, r)
		res.Attempted += r.attempted
		res.Failed += r.failed
	}
	med := func(get func(repResult) float64) float64 {
		v := make([]float64, len(rs))
		for i, r := range rs {
			v[i] = get(r)
		}
		slices.Sort(v)
		return v[len(v)/2]
	}
	res.set("setup_s", med(func(r repResult) float64 { return r.setup }), "s")
	res.set("ops_per_s", med(func(r repResult) float64 { return r.opsPerS }), "1/s")
	// Latency percentiles are over the timed calls of all repetitions.
	var rd, wr lats
	for _, r := range rs {
		rd, wr = append(rd, r.rd...), append(wr, r.wr...)
	}
	rd, wr = merge(rd), merge(wr)
	res.set("read_p50_us", rd.pctUs(0.50), "us")
	res.set("read_p90_us", rd.pctUs(0.90), "us")
	res.set("write_p50_us", wr.pctUs(0.50), "us")
	res.set("write_p90_us", wr.pctUs(0.90), "us")
	res.set("ok_frac", 1-ratio(float64(res.Failed), float64(res.Attempted)), "ratio")
	res.set("mem_mb", med(func(r repResult) float64 { return r.mem }), "MiB")
	res.set("space_amp", med(func(r repResult) float64 { return r.spaceAmp }), "ratio")
	return nil
}

// rep builds and loads a fresh store (timed as set-up), then measures
// for d: a quarter of it open-loop at the workload's nominal rate,
// which sends requests without waiting for replies and so checks
// pipelined answers, and the rest in the closed loop (ops_per_s, and
// the latencies of the calls it times).
func rep(w *workload, seed int64, d time.Duration, f *faults) (repResult, error) {
	var r repResult
	settleHeap()
	t0 := time.Now()
	e, err := setUp(w, true, nil, f)
	if err != nil {
		return r, err
	}
	r.setup = time.Since(t0).Seconds()
	defer e.st.release()
	peak := startHeapPeak()
	ws := newWorkers(e.st, seed, uint64(w.loadN))

	settleHeap()
	nom := e.open(ws, w.ladder[0], d/4, seed)
	r.attempted, r.failed = nom.attempts, nom.failed

	settleHeap()
	ops0, failed0 := sum(ws, func(wk *worker) int64 { return wk.ops }), sum(ws, func(wk *worker) int64 { return wk.failed })
	var el time.Duration
	if w.wire {
		el = closedLoop(ws, func(int) front { return e.front() }, time.Now(), d*3/4, 0, w.timeEvery)
	} else {
		// A fixed count, not a fixed time, so every run inserts the same
		// keys and crosses the same hash-table doublings.
		el = closedLoop(ws, func(int) front { return e.front() }, time.Now(), 0, int(w.closedRate*(d*3/4).Seconds())/numWorkers, w.timeEvery)
	}
	for _, wk := range ws {
		for _, x := range wk.lat {
			if x.kind.write() {
				r.wr = append(r.wr, x.ns)
			} else {
				r.rd = append(r.rd, x.ns)
			}
		}
	}
	closedOps := sum(ws, func(wk *worker) int64 { return wk.ops }) - ops0
	r.attempted += closedOps
	r.failed += sum(ws, func(wk *worker) int64 { return wk.failed }) - failed0
	r.opsPerS = float64(closedOps) / el.Seconds()

	if err := e.shutdown(); err != nil {
		return r, err
	}
	e.st.verify(ws)
	r.spaceAmp = float64(e.st.stats().AllocBytes) / (float64(e.st.length()) * float64(e.st.keyLen+8))
	r.mem = peak.end()
	fmt.Fprintf(os.Stderr, "perfbench: %s: set-up %.3fs; closed loop %d ops in %v\n",
		w.name, r.setup, closedOps, el.Round(time.Millisecond))
	return r, nil
}
