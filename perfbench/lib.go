package main

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/commit"
	"repro/internal/core"
	"repro/internal/keys"
	"repro/internal/pmem"
	"repro/shard"
)

// store is one workload's sharded front-end and its ledger.
type store struct {
	w   *workload
	h   *shard.Hash
	o   *shard.Ordered
	led *ledger
	// keyLen is the encoded key size, for space amplification.
	keyLen int
}

// newStore builds the workload's front-end through its public
// constructor. wrap, when non-nil, interposes the traced index
// wrappers through the factory constructors.
func newStore(w *workload, delays bool, wrap *wrapper, f *faults) (*store, error) {
	opts := shard.Options{Shards: numShards}
	if delays {
		opts.Heap = pmem.Options{DelayClwb: delayClwb, DelayFence: delayFence}
	}
	s := &store{w: w, led: newLedger(w, f)}
	var err error
	switch {
	case w.hash && wrap == nil:
		s.h, err = shard.NewHash("P-CLHT", opts)
	case w.hash:
		s.h, err = shard.NewHashWith(func(h *pmem.Heap) (core.HashIndex, error) {
			idx, err := core.NewHash("P-CLHT", h)
			return wrap.hash(idx), err
		}, opts)
	case wrap == nil:
		s.o, err = shard.NewOrdered("P-ART", keys.YCSBString, opts)
	default:
		s.o, err = shard.NewOrderedWith(func(h *pmem.Heap) (core.OrderedIndex, error) {
			idx, err := core.NewOrdered("P-ART", h, keys.YCSBString)
			return wrap.ordered(idx), err
		}, opts)
	}
	if err != nil {
		return nil, err
	}
	s.keyLen = 8
	if !w.hash {
		s.keyLen = len(s.led.ordKey(nil, 0))
	}
	return s, nil
}

// preload inserts keys [0, loadN) with version 0 from numWorkers
// goroutines.
func (s *store) preload() error {
	errs := make([]error, numWorkers)
	var wg sync.WaitGroup
	for wk := 0; wk < numWorkers; wk++ {
		wg.Add(1)
		go func(wk int) {
			defer wg.Done()
			var kb []byte
			for id := uint64(wk); id < uint64(s.w.loadN); id += numWorkers {
				var err error
				if s.h != nil {
					err = s.h.Insert(hashKey(id), valueOf(id, 0))
				} else {
					kb = s.led.ordKey(kb[:0], id)
					err = s.o.Insert(kb, valueOf(id, 0))
				}
				if err != nil {
					errs[wk] = fmt.Errorf("preload key %d: %w", id, err)
					return
				}
			}
		}(wk)
	}
	wg.Wait()
	return errors.Join(errs...)
}

func (s *store) stats() pmem.Stats {
	if s.h != nil {
		return s.h.Stats()
	}
	return s.o.Stats()
}

func (s *store) shardStats() []pmem.Stats {
	if s.h != nil {
		return s.h.ShardStats()
	}
	return s.o.ShardStats()
}

func (s *store) length() int {
	if s.h != nil {
		return s.h.Len()
	}
	return s.o.Len()
}

func (s *store) loadReport() shard.LoadReport {
	if s.h != nil {
		return s.h.LoadReport()
	}
	return s.o.LoadReport()
}

func (s *store) release() {
	if s.h != nil {
		s.h.Release()
	} else {
		s.o.Release()
	}
}

// verify runs the end-of-run guards: the key count equals loaded plus
// inserted, the aggregate counters equal the per-shard sum, and every
// 97th key the workers inserted (and cleanup kept) reads back.
func (s *store) verify(ws []*worker) {
	l := s.led
	want := s.w.loadN + int(l.insertedKeys.Load())
	if got := s.length(); got != want {
		l.fail("Len() = %d, want %d loaded + %d inserted", got, s.w.loadN, l.insertedKeys.Load())
	}
	var sum pmem.Stats
	for _, st := range s.shardStats() {
		sum = sum.Add(st)
	}
	if agg := s.stats(); agg != sum {
		l.fail("Stats() = %+v, but the shards sum to %+v", agg, sum)
	}
	for _, wk := range ws {
		for i := 0; i < len(wk.insertedIDs); i += 97 {
			id := wk.insertedIDs[i]
			v, ok, err := shardFront{}.read(wk, id)
			if err != nil {
				l.fail("read back of inserted key %d: %v", id, err)
				continue
			}
			l.checkRead(id, 0, v, ok)
		}
	}
}

// front is one rung of the stack that a worker drives operations
// through. Writes acknowledge through worker.acked, possibly later
// than the call (batched and async rungs); flush acknowledges
// everything still pending.
type front interface {
	read(wk *worker, id uint64) (v uint64, found bool, err error)
	write(wk *worker, kind opKind, id, v uint64, ver uint32) error
	scan(wk *worker, id uint64, n int) error
	flush(wk *worker) error
}

// worker is one closed-loop or open-loop client of a store.
type worker struct {
	idx  int
	st   *store
	ids  idSource
	strm *stream
	kb   []byte
	sc   scanCheck

	// Tallies, owned by the worker's goroutine.
	ops, failed int64
	writes      int64
	insertedIDs []uint64
	// Sampled closed-loop call timings.
	lat []sample
}

func newWorkers(st *store, seed int64, insBase uint64) []*worker {
	ws := make([]*worker, numWorkers)
	for i := range ws {
		ws[i] = &worker{
			idx:  i,
			st:   st,
			ids:  idSource{base: insBase, worker: i},
			strm: newStream(st.w, seed, i),
		}
	}
	return ws
}

// acked records an acknowledged write.
func (wk *worker) acked(kind opKind, id uint64, ver uint32) {
	wk.writes++
	if kind == opInsert {
		wk.insertedIDs = append(wk.insertedIDs, id)
		wk.st.led.insertedKeys.Add(1)
		return
	}
	wk.st.led.ackWrite(id, ver)
}

// fault counts a failed operation: an error reply or call error, not a
// wrong answer (those fail the ledger).
func (wk *worker) fault() { wk.failed++ }

// do executes one operation through f and checks its result.
func (wk *worker) do(f front, o op) {
	wk.ops++
	l := wk.st.led
	switch o.kind {
	case opRead:
		lo := l.floor(o.id)
		v, ok, err := f.read(wk, o.id)
		if err != nil {
			wk.fault()
			return
		}
		l.checkRead(o.id, lo, v, ok)
	case opInsert:
		if err := f.write(wk, opInsert, o.id, valueOf(o.id, 0), 0); err != nil {
			wk.fault()
		}
	case opUpdate:
		ver := l.beginWrite(o.id)
		if err := f.write(wk, opUpdate, o.id, valueOf(o.id, ver), ver); err != nil {
			wk.fault()
		}
	case opScan:
		if err := f.scan(wk, o.id, o.n); err != nil {
			wk.fault()
		}
	}
}

// shardFront is rung L1: public calls on the shard front-end.
type shardFront struct{}

func (shardFront) read(wk *worker, id uint64) (uint64, bool, error) {
	s := wk.st
	if s.h != nil {
		return s.h.LookupChecked(hashKey(id))
	}
	wk.kb = s.led.ordKey(wk.kb[:0], id)
	return s.o.LookupChecked(wk.kb)
}

func (shardFront) write(wk *worker, kind opKind, id, v uint64, ver uint32) error {
	s := wk.st
	var err error
	switch {
	case s.h != nil && kind == opInsert:
		err = s.h.Insert(hashKey(id), v)
	case s.h != nil:
		err = s.h.Update(hashKey(id), v)
	case kind == opInsert:
		wk.kb = s.led.ordKey(wk.kb[:0], id)
		err = s.o.Insert(wk.kb, v)
	default:
		wk.kb = s.led.ordKey(wk.kb[:0], id)
		err = s.o.Update(wk.kb, v)
	}
	if err == nil {
		wk.acked(kind, id, ver)
	}
	return err
}

func (shardFront) scan(wk *worker, id uint64, n int) error {
	wk.kb = wk.st.led.ordKey(wk.kb[:0], id)
	wk.sc.reset(wk.st.led, id, n)
	wk.st.o.Scan(wk.kb, n, wk.sc.collect)
	wk.sc.check()
	return nil
}

func (shardFront) flush(*worker) error { return nil }

// indexFront is rung L0: the per-shard core index, found with the
// front-end's own stateless partitioner. A scan covers the start key's
// shard only.
type indexFront struct{}

func (indexFront) read(wk *worker, id uint64) (uint64, bool, error) {
	s := wk.st
	if s.h != nil {
		k := hashKey(id)
		v, ok := s.h.Shard(shard.HashPartition64{}.Shard(k, numShards)).Lookup(k)
		return v, ok, nil
	}
	wk.kb = s.led.ordKey(wk.kb[:0], id)
	v, ok := s.o.Shard(shard.HashPartition{}.Shard(wk.kb, numShards)).Lookup(wk.kb)
	return v, ok, nil
}

func (indexFront) write(wk *worker, kind opKind, id, v uint64, ver uint32) error {
	s := wk.st
	var err error
	if s.h != nil {
		k := hashKey(id)
		idx := s.h.Shard(shard.HashPartition64{}.Shard(k, numShards))
		if kind == opInsert {
			err = idx.Insert(k, v)
		} else {
			err = idx.Update(k, v)
		}
	} else {
		wk.kb = s.led.ordKey(wk.kb[:0], id)
		idx := s.o.Shard(shard.HashPartition{}.Shard(wk.kb, numShards))
		if kind == opInsert {
			err = idx.Insert(wk.kb, v)
		} else {
			err = idx.Update(wk.kb, v)
		}
	}
	if err == nil {
		wk.acked(kind, id, ver)
	}
	return err
}

func (indexFront) scan(wk *worker, id uint64, n int) error {
	s := wk.st
	wk.kb = s.led.ordKey(wk.kb[:0], id)
	wk.sc.reset(s.led, id, n)
	s.o.Shard(shard.HashPartition{}.Shard(wk.kb, numShards)).Scan(wk.kb, n, wk.sc.collect)
	wk.sc.check()
	return nil
}

func (indexFront) flush(*worker) error { return nil }

// pendingWrite is a write issued but not yet acknowledged.
type pendingWrite struct {
	kind opKind
	id   uint64
	ver  uint32
	at   time.Time
	fut  *commit.Future
}

// groupFront is rung L2: writes queue in a per-worker shard.Deferred
// and group-commit every batch writes; reads and scans go to L1.
type groupFront struct {
	batch int
	per   []groupWorker
}

type groupWorker struct {
	od      *shard.Deferred
	hd      *shard.DeferredHash
	pending []pendingWrite
}

func newGroupFront(st *store, batch int) *groupFront {
	g := &groupFront{batch: batch, per: make([]groupWorker, numWorkers)}
	for i := range g.per {
		// The limit sits above batch so the combiner never flushes on
		// its own; flush below commits exactly batch writes at a time.
		if st.h != nil {
			g.per[i].hd = shard.NewDeferredHash(st.h, batch+1)
		} else {
			g.per[i].od = shard.NewDeferred(st.o, batch+1)
		}
	}
	return g
}

func (g *groupFront) read(wk *worker, id uint64) (uint64, bool, error) {
	return shardFront{}.read(wk, id)
}

func (g *groupFront) scan(wk *worker, id uint64, n int) error { return shardFront{}.scan(wk, id, n) }

func (g *groupFront) write(wk *worker, kind opKind, id, v uint64, ver uint32) error {
	gw := &g.per[wk.idx]
	var err error
	switch {
	case gw.hd != nil && kind == opInsert:
		err = gw.hd.Insert(hashKey(id), v)
	case gw.hd != nil:
		err = gw.hd.Update(hashKey(id), v)
	case kind == opInsert:
		wk.kb = wk.st.led.ordKey(wk.kb[:0], id)
		err = gw.od.Insert(wk.kb, v)
	default:
		wk.kb = wk.st.led.ordKey(wk.kb[:0], id)
		err = gw.od.Update(wk.kb, v)
	}
	if err != nil {
		return err
	}
	gw.pending = append(gw.pending, pendingWrite{kind: kind, id: id, ver: ver})
	if len(gw.pending) >= g.batch {
		return g.flush(wk)
	}
	return nil
}

func (g *groupFront) flush(wk *worker) error {
	gw := &g.per[wk.idx]
	var err error
	if gw.hd != nil {
		err = gw.hd.Flush()
	} else {
		err = gw.od.Flush()
	}
	if err == nil {
		for _, p := range gw.pending {
			wk.acked(p.kind, p.id, p.ver)
		}
	}
	gw.pending = gw.pending[:0]
	return err
}

// commitFront is rung L3: writes enqueue into the async pipeline
// (commit.NewOrdered / commit.NewHash) with up to window futures
// outstanding per worker; reads and scans go to L1.
type commitFront struct {
	op     *commit.Ordered
	hp     *commit.Hash
	window int
	per    [numWorkers][]pendingWrite
	// Per-worker acknowledgement latencies and queue-depth samples.
	ack   [numWorkers]lats
	depth [numWorkers]float64
	nq    [numWorkers]int
}

func newCommitFront(st *store, window int) *commitFront {
	c := &commitFront{window: window}
	if st.h != nil {
		c.hp = commit.NewHash(st.h, commit.Options{Policy: commit.Block})
	} else {
		c.op = commit.NewOrdered(st.o, commit.Options{Policy: commit.Block})
	}
	return c
}

func (c *commitFront) close() error {
	if c.hp != nil {
		return c.hp.Close()
	}
	return c.op.Close()
}

func (c *commitFront) read(wk *worker, id uint64) (uint64, bool, error) {
	return shardFront{}.read(wk, id)
}

func (c *commitFront) scan(wk *worker, id uint64, n int) error { return shardFront{}.scan(wk, id, n) }

func (c *commitFront) write(wk *worker, kind opKind, id, v uint64, ver uint32) error {
	var fut *commit.Future
	var err error
	var pending int
	switch {
	case c.hp != nil && kind == opInsert:
		fut, err = c.hp.Insert(hashKey(id), v)
		pending = c.hp.Pending()
	case c.hp != nil:
		fut, err = c.hp.Update(hashKey(id), v)
		pending = c.hp.Pending()
	case kind == opInsert:
		wk.kb = wk.st.led.ordKey(wk.kb[:0], id)
		fut, err = c.op.Insert(wk.kb, v)
		pending = c.op.Pending()
	default:
		wk.kb = wk.st.led.ordKey(wk.kb[:0], id)
		fut, err = c.op.Update(wk.kb, v)
		pending = c.op.Pending()
	}
	if err != nil {
		return err
	}
	c.depth[wk.idx] += float64(pending)
	c.nq[wk.idx]++
	c.per[wk.idx] = append(c.per[wk.idx], pendingWrite{kind: kind, id: id, ver: ver, at: time.Now(), fut: fut})
	if len(c.per[wk.idx]) >= c.window {
		c.retire(wk, 1)
	}
	return nil
}

// retire waits for the oldest n outstanding futures of wk.
func (c *commitFront) retire(wk *worker, n int) {
	q := c.per[wk.idx]
	for _, p := range q[:n] {
		if err := p.fut.Wait(); err != nil {
			wk.fault()
			continue
		}
		at, _ := p.fut.ResolvedAt()
		c.ack[wk.idx].add(at.Sub(p.at))
		wk.acked(p.kind, p.id, p.ver)
	}
	c.per[wk.idx] = append(q[:0], q[n:]...)
}

func (c *commitFront) flush(wk *worker) error {
	c.retire(wk, len(c.per[wk.idx]))
	return nil
}

// closedLoop drives every worker through f until dur elapses or each
// worker issued limit operations (limit 0: no limit), and returns the
// wall time taken. Each worker uses its own stream. With every > 0,
// every every-th call is timed into the worker's samples, placed by
// its start time since base.
func closedLoop(ws []*worker, f func(i int) front, base time.Time, dur time.Duration, limit, every int) time.Duration {
	start := time.Now()
	deadline := start.Add(dur)
	var wg sync.WaitGroup
	for _, wk := range ws {
		wg.Add(1)
		go func(wk *worker) {
			defer wg.Done()
			fr := f(wk.idx)
			for i := 0; limit == 0 || i < limit; i++ {
				if limit == 0 && i%32 == 0 && time.Now().After(deadline) {
					break
				}
				o := wk.strm.next(&wk.ids)
				if every == 0 || i%every != 0 {
					wk.do(fr, o)
					continue
				}
				t0 := time.Now()
				wk.do(fr, o)
				wk.lat = append(wk.lat, sample{sched: int64(t0.Sub(base)), ns: int64(time.Since(t0)), kind: o.kind})
			}
			if err := fr.flush(wk); err != nil {
				wk.fault()
			}
		}(wk)
	}
	wg.Wait()
	return time.Since(start)
}

// cleanup deletes, untimed, every key the workers inserted into a hash
// store since the last cleanup, and checks each was present: every
// acknowledged insert is. Each phase on P-CLHT thus starts from the
// same key set, so its stop-the-world table doubling, paid by set-up
// and the closed loop at fixed operation counts, does not land in some
// ladder rates of some runs. Ordered stores keep their inserts: P-ART
// does not resize, and its Insert livelocks after Deletes.
func (s *store) cleanup(ws []*worker) {
	if s.h == nil {
		return
	}
	for _, wk := range ws {
		for _, id := range wk.insertedIDs {
			if ok, err := s.h.Delete(hashKey(id)); !ok || err != nil {
				s.led.fail("acknowledged insert of key %d: present=%v delete err=%v", id, ok, err)
			}
		}
		s.led.insertedKeys.Add(-int64(len(wk.insertedIDs)))
		wk.insertedIDs = wk.insertedIDs[:0]
	}
}
