package main

import (
	"fmt"
	"math/rand"
	"sync/atomic"
	"time"

	"repro/internal/keys"
	"repro/internal/loadgen"
	"repro/internal/server"
	"repro/internal/ycsb"
)

// opKind is one operation class of a workload mix.
type opKind uint8

const (
	opRead opKind = iota
	opInsert
	opUpdate
	opScan
)

func (k opKind) write() bool { return k == opInsert || k == opUpdate }

// op is one generated operation. id names the key; n is a scan length.
type op struct {
	kind opKind
	id   uint64
	n    int
}

// workload is one named benchmark input: the store it runs on, the
// front it is driven through, the op mix and the open-loop rates.
type workload struct {
	name string
	// hash selects P-CLHT behind shard.NewHash; otherwise P-ART behind
	// shard.NewOrdered.
	hash bool
	// wire serves the store with internal/server on loopback and drives
	// it with this benchmark's own client; otherwise calls go straight
	// to the shard front-end.
	wire bool
	mode server.WriteMode
	// loadN keys are preloaded during set-up.
	loadN int
	// Mix in percent; the four sum to 100. Reads and updates target
	// loaded keys; inserts target fresh keys.
	readPct, insertPct, updatePct, scanPct int
	zipf                                   bool
	// ladder holds the open-loop rates, ascending, that the traced run
	// probes for open.max_qps; the first is the nominal rate, which
	// every run drives.
	ladder []float64
	// p99Limit is the latency limit a ladder rate must meet.
	p99Limit time.Duration
	// closedRate calibrates a library closed loop's operation count to
	// three quarters of a repetition on a 2-vCPU VM.
	closedRate float64
	// timeEvery is how often the closed loop times a call: every call,
	// or every 8th where calls take about a microsecond and timing
	// them all would show in ops_per_s.
	timeEvery int
	// replayOps is the per-worker length of the traced run's replays.
	replayOps int
}

// Shared configuration of every workload: ycsbbench's default
// Optane-like delays, no durability tracker, four hash shards, and at
// most two workers or connections.
const (
	delayClwb  = 40
	delayFence = 20
	numShards  = 4
	numWorkers = 2
)

// The workloads; RATIONALE.md gives the reason for each.
var workloads = []*workload{
	{
		name: "clht-ycsb-a", hash: true, loadN: 1_000_000,
		readPct: 50, insertPct: 50,
		ladder:   []float64{500_000, 625_000, 780_000, 980_000, 1_220_000, 1_530_000, 1_900_000},
		p99Limit: 5 * time.Millisecond, closedRate: 1_000_000, timeEvery: 8, replayOps: 150_000,
	},
	{
		name: "art-ycsb-e", loadN: 1_000_000,
		insertPct: 5, scanPct: 95,
		ladder:   []float64{4_000, 6_250, 7_800, 9_800, 12_200, 15_200, 19_000, 24_000},
		p99Limit: 5 * time.Millisecond, closedRate: 10_000, timeEvery: 1, replayOps: 2_000,
	},
	{
		name: "wire-read-zipf", wire: true, mode: server.ModeBatched, loadN: 200_000,
		readPct: 95, updatePct: 5, zipf: true,
		ladder:   []float64{20_000, 40_000, 62_500, 78_000, 98_000, 122_000, 153_000, 190_000, 240_000, 300_000},
		p99Limit: 20 * time.Millisecond, timeEvery: 1, replayOps: 40_000,
	},
	{
		name: "wire-write-async", wire: true, mode: server.ModeAsync, loadN: 200_000,
		readPct: 50, insertPct: 25, updatePct: 25,
		ladder:   []float64{20_000, 40_000, 50_000, 62_500, 78_000, 98_000, 122_000},
		p99Limit: 20 * time.Millisecond, timeEvery: 1, replayOps: 40_000,
	},
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// stream draws one worker's operations: kinds and read targets come
// from a seeded source, so two streams built from the same seed and
// worker index repeat each other; fresh insert ids come from the
// worker's own counter, so a replay inserts new keys instead of
// overwriting the keys an earlier phase inserted.
type stream struct {
	w      *workload
	rng    *rand.Rand
	smp    ycsb.Sampler
	worker int
}

func newStream(w *workload, seed int64, worker int) *stream {
	rng := rand.New(rand.NewSource(seed*1_000_003 + int64(worker)*7919 + 1))
	var dist ycsb.Distribution = ycsb.Uniform{}
	if w.zipf {
		dist = ycsb.Zipfian{Theta: ycsb.DefaultTheta}
	}
	return &stream{w: w, rng: rng, smp: dist.NewSampler(w.loadN, rng), worker: worker}
}

// next returns the worker's next operation, taking insert ids from ins.
func (s *stream) next(ins *idSource) op {
	r := s.rng.Intn(100)
	w := s.w
	switch {
	case r < w.insertPct:
		return op{kind: opInsert, id: ins.next()}
	case r < w.insertPct+w.updatePct:
		// Each loaded key has one writing worker (id mod numWorkers),
		// so its versions are written in one order and the ledger
		// can bound what a concurrent read may return.
		id := s.smp.Next()
		id = id - id%numWorkers + uint64(s.worker)
		if id >= uint64(w.loadN) {
			id -= numWorkers
		}
		return op{kind: opUpdate, id: id}
	case r < w.insertPct+w.updatePct+w.scanPct:
		return op{kind: opScan, id: s.smp.Next(), n: 1 + s.rng.Intn(ycsb.MaxScanLen)}
	default:
		return op{kind: opRead, id: s.smp.Next()}
	}
}

// idSource hands one worker fresh insert ids: loadN + k*numWorkers +
// worker for k = 0, 1, ... across every phase of a run.
type idSource struct {
	base   uint64
	worker int
	k      uint64
}

func (s *idSource) next() uint64 {
	id := s.base + s.k*numWorkers + uint64(s.worker)
	s.k++
	return id
}

// Values encode the key id and a version, so a read can be checked
// against the ledger and a scanned pair against its own key.
const verBits = 20

func valueOf(id uint64, ver uint32) uint64 { return id<<verBits | uint64(ver) }

func splitValue(v uint64) (id uint64, ver uint32) {
	return v >> verBits, uint32(v & (1<<verBits - 1))
}

// ledger tracks, per loaded key, the highest version sent and the
// highest version acknowledged. A read that started after version a was
// acknowledged and finished before version s+1 was sent must return a
// version in [a, s]. Inserted keys are written once, with version 0.
type ledger struct {
	loadN        uint64
	sent, acked  []atomic.Uint32
	ordKey       func(dst []byte, id uint64) []byte
	faults       *faults
	insertedKeys atomic.Int64
}

// faults counts the correctness violations of a whole run, across the
// stores it builds; any makes the run exit non-zero.
type faults struct {
	n     atomic.Int64
	first atomic.Pointer[string]
}

func (f *faults) add(msg string) {
	f.n.Add(1)
	f.first.CompareAndSwap(nil, &msg)
}

func newLedger(w *workload, f *faults) *ledger {
	l := &ledger{
		faults: f,
		loadN:  uint64(w.loadN),
		sent:   make([]atomic.Uint32, w.loadN),
		acked:  make([]atomic.Uint32, w.loadN),
	}
	if w.wire {
		l.ordKey = loadgen.AppendKey
	} else {
		g := keys.NewGenerator(keys.YCSBString)
		l.ordKey = g.AppendKey
	}
	return l
}

// hashKey is the P-CLHT key of id.
func hashKey(id uint64) uint64 { return keys.Mix64(id) }

// fail records a correctness violation; the run exits non-zero.
func (l *ledger) fail(format string, args ...any) {
	l.faults.add(fmt.Sprintf(format, args...))
}

// beginWrite reserves the next version of loaded key id.
func (l *ledger) beginWrite(id uint64) uint32 {
	ver := l.sent[id].Add(1)
	if ver >= 1<<verBits {
		panic("perfbench: version space exhausted")
	}
	return ver
}

// ackWrite records that version ver of id is acknowledged.
func (l *ledger) ackWrite(id uint64, ver uint32) {
	for {
		cur := l.acked[id].Load()
		if cur >= ver || l.acked[id].CompareAndSwap(cur, ver) {
			return
		}
	}
}

// floor is the lowest version a read of id starting now may return.
func (l *ledger) floor(id uint64) uint32 {
	if id >= l.loadN {
		return 0
	}
	return l.acked[id].Load()
}

// checkRead verifies a point read of id that started with floor lo.
func (l *ledger) checkRead(id uint64, lo uint32, v uint64, found bool) {
	if !found {
		l.fail("read of key %d: missing", id)
		return
	}
	gid, ver := splitValue(v)
	if gid != id {
		l.fail("read of key %d: value belongs to key %d", id, gid)
		return
	}
	hi := uint32(0)
	if id < l.loadN {
		hi = l.sent[id].Load()
	}
	if ver < lo || ver > hi {
		l.fail("read of key %d: version %d outside [%d, %d]", id, ver, lo, hi)
	}
}

// scanCheck verifies one ordered scan page: pairs are strictly
// ascending, the first is the (always present) start key, each value
// names its own key, and the page holds at most n pairs. Pairs are
// collected during the scan and checked after it, so the check's cost
// stays out of the timed call.
type scanCheck struct {
	l     *ledger
	start uint64
	n     int
	got   int
	keys  []byte
	ends  []int
	vals  []uint64
	want  []byte
}

func (c *scanCheck) reset(l *ledger, start uint64, n int) {
	c.l, c.start, c.n, c.got = l, start, n, 0
	c.keys, c.ends, c.vals = c.keys[:0], c.ends[:0], c.vals[:0]
}

// collect is the scan callback.
func (c *scanCheck) collect(k []byte, v uint64) bool {
	c.keys = append(c.keys, k...)
	c.ends = append(c.ends, len(c.keys))
	c.vals = append(c.vals, v)
	return true
}

func (c *scanCheck) check() {
	c.got = len(c.vals)
	if c.got == 0 || c.got > c.n {
		c.l.fail("scan from %d: %d pairs for a page of %d", c.start, c.got, c.n)
		return
	}
	lo := 0
	var prev []byte
	for i, v := range c.vals {
		k := c.keys[lo:c.ends[i]]
		lo = c.ends[i]
		id, ver := splitValue(v)
		c.want = c.l.ordKey(c.want[:0], id)
		switch {
		case string(c.want) != string(k):
			c.l.fail("scan from %d: key %q carries the value of key %d", c.start, k, id)
		case i == 0 && id != c.start:
			c.l.fail("scan from %d: first key is %d", c.start, id)
		case i > 0 && string(k) <= string(prev):
			c.l.fail("scan from %d: keys out of order", c.start)
		case id >= c.l.loadN && ver != 0:
			c.l.fail("scan from %d: inserted key %d has version %d", c.start, id, ver)
		case id < c.l.loadN && ver > c.l.sent[id].Load():
			c.l.fail("scan from %d: key %d has unsent version %d", c.start, id, ver)
		}
		prev = k
	}
}
