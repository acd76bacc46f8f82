package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/keys"
	"repro/internal/stripe"
)

// Span layers.
const (
	layerShard uint8 = iota // a public call on the shard front-end
	layerIndex              // a core index call the front-end made
)

// span is one timed call. req links the spans of one request: the
// benchmark numbers each public call, and an index call finds its
// request through the key it was given.
type span struct {
	start, end int64 // ns since the trace began
	req        uint64
	layer      uint8
	kind       opKind
}

// spanLog keeps spans in memory, up to a fixed capacity, until exit.
type spanLog struct {
	base    time.Time
	spans   []span
	n       atomic.Int64
	dropped atomic.Int64
	// reqOf maps a key's hash to the request currently using the key.
	reqOf [1 << 12]atomic.Uint64
	seq   atomic.Uint64
}

func newSpanLog(capacity int) *spanLog {
	return &spanLog{base: time.Now(), spans: make([]span, capacity)}
}

func (l *spanLog) add(s span) {
	i := l.n.Add(1) - 1
	if i >= int64(len(l.spans)) {
		l.dropped.Add(1)
		return
	}
	l.spans[i] = s
}

func (l *spanLog) since() int64 { return int64(time.Since(l.base)) }

// begin opens a request for a public call on key hash h.
func (l *spanLog) begin(h uint64) uint64 {
	req := l.seq.Add(1)
	l.reqOf[h%uint64(len(l.reqOf))].Store(req)
	return req
}

func (l *spanLog) reqFor(h uint64) uint64 { return l.reqOf[h%uint64(len(l.reqOf))].Load() }

// write stores the spans as tab-separated text.
func (l *spanLog) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	fmt.Fprintf(bw, "# start_ns\tend_ns\treq\tlayer\tkind\t(dropped %d)\n", l.dropped.Load())
	n := min(l.n.Load(), int64(len(l.spans)))
	names := [...]string{"shard", "index"}
	kinds := [...]string{"read", "insert", "update", "scan"}
	for _, s := range l.spans[:n] {
		fmt.Fprintf(bw, "%d\t%d\t%d\t%s\t%s\n", s.start, s.end, s.req, names[s.layer], kinds[s.kind])
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func keyHash(k []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range k {
		h = (h ^ uint64(c)) * 1099511628211
	}
	return h
}

// wrapper interposes on the core indexes through the shard factory
// constructors. While on, it times every index call by kind, counts the
// entries index scans visit, and logs a span per call.
type wrapper struct {
	on      atomic.Bool
	ns      [4]*stripe.Counter
	calls   [4]*stripe.Counter
	visited *stripe.Counter
	log     *spanLog
}

func newWrapper(log *spanLog) *wrapper {
	w := &wrapper{visited: stripe.NewCounter(), log: log}
	for i := range w.ns {
		w.ns[i], w.calls[i] = stripe.NewCounter(), stripe.NewCounter()
	}
	return w
}

func (w *wrapper) done(k opKind, h uint64, t0 int64) {
	t1 := w.log.since()
	w.ns[k].Add(uint64(t1 - t0))
	w.calls[k].Add(1)
	w.log.add(span{start: t0, end: t1, req: w.log.reqFor(h), layer: layerIndex, kind: k})
}

// meanNs is the mean index time of kind k, and the call count.
func (w *wrapper) meanNs(k opKind) (float64, uint64) {
	n := w.calls[k].Load()
	if n == 0 {
		return 0, 0
	}
	return float64(w.ns[k].Load()) / float64(n), n
}

func (w *wrapper) ordered(idx core.OrderedIndex) core.OrderedIndex {
	return &tracedOrdered{OrderedIndex: idx, w: w}
}

func (w *wrapper) hash(idx core.HashIndex) core.HashIndex {
	return &tracedHash{HashIndex: idx, w: w}
}

type tracedOrdered struct {
	core.OrderedIndex
	w *wrapper
}

func (t *tracedOrdered) Insert(key []byte, value uint64) error {
	if !t.w.on.Load() {
		return t.OrderedIndex.Insert(key, value)
	}
	t0 := t.w.log.since()
	err := t.OrderedIndex.Insert(key, value)
	t.w.done(opInsert, keyHash(key), t0)
	return err
}

func (t *tracedOrdered) Update(key []byte, value uint64) error {
	if !t.w.on.Load() {
		return t.OrderedIndex.Update(key, value)
	}
	t0 := t.w.log.since()
	err := t.OrderedIndex.Update(key, value)
	t.w.done(opUpdate, keyHash(key), t0)
	return err
}

func (t *tracedOrdered) Lookup(key []byte) (uint64, bool) {
	if !t.w.on.Load() {
		return t.OrderedIndex.Lookup(key)
	}
	t0 := t.w.log.since()
	v, ok := t.OrderedIndex.Lookup(key)
	t.w.done(opRead, keyHash(key), t0)
	return v, ok
}

func (t *tracedOrdered) Scan(start []byte, count int, fn func(key []byte, value uint64) bool) int {
	if !t.w.on.Load() {
		return t.OrderedIndex.Scan(start, count, fn)
	}
	t0 := t.w.log.since()
	n := t.OrderedIndex.Scan(start, count, fn)
	t.w.visited.Add(uint64(n))
	t.w.done(opScan, keyHash(start), t0)
	return n
}

type tracedHash struct {
	core.HashIndex
	w *wrapper
}

func (t *tracedHash) Insert(key, value uint64) error {
	if !t.w.on.Load() {
		return t.HashIndex.Insert(key, value)
	}
	t0 := t.w.log.since()
	err := t.HashIndex.Insert(key, value)
	t.w.done(opInsert, keys.Mix64(key), t0)
	return err
}

func (t *tracedHash) Update(key, value uint64) error {
	if !t.w.on.Load() {
		return t.HashIndex.Update(key, value)
	}
	t0 := t.w.log.since()
	err := t.HashIndex.Update(key, value)
	t.w.done(opUpdate, keys.Mix64(key), t0)
	return err
}

func (t *tracedHash) Lookup(key uint64) (uint64, bool) {
	if !t.w.on.Load() {
		return t.HashIndex.Lookup(key)
	}
	t0 := t.w.log.since()
	v, ok := t.HashIndex.Lookup(key)
	t.w.done(opRead, keys.Mix64(key), t0)
	return v, ok
}

// tracedFront is rung L1 with a span around every public call; the
// wrapper adds the index spans beneath. It also tallies what the
// shard-layer self time needs: time in public calls by kind and the
// pairs scans returned.
type tracedFront struct {
	log *spanLog
	per [numWorkers]tracedTally
}

type tracedTally struct {
	ns, calls [4]int64
	returned  int64
}

func (f *tracedFront) call(wk *worker, k opKind, h uint64, fn func()) {
	req := f.log.begin(h)
	t0 := f.log.since()
	fn()
	t1 := f.log.since()
	f.log.add(span{start: t0, end: t1, req: req, layer: layerShard, kind: k})
	t := &f.per[wk.idx]
	t.ns[k] += t1 - t0
	t.calls[k]++
}

func (f *tracedFront) reqKey(wk *worker, id uint64) uint64 {
	if wk.st.h != nil {
		return keys.Mix64(hashKey(id))
	}
	wk.kb = wk.st.led.ordKey(wk.kb[:0], id)
	return keyHash(wk.kb)
}

func (f *tracedFront) read(wk *worker, id uint64) (v uint64, ok bool, err error) {
	f.call(wk, opRead, f.reqKey(wk, id), func() { v, ok, err = shardFront{}.read(wk, id) })
	return
}

func (f *tracedFront) write(wk *worker, kind opKind, id, v uint64, ver uint32) (err error) {
	f.call(wk, kind, f.reqKey(wk, id), func() { err = shardFront{}.write(wk, kind, id, v, ver) })
	return
}

func (f *tracedFront) scan(wk *worker, id uint64, n int) (err error) {
	f.call(wk, opScan, f.reqKey(wk, id), func() { err = shardFront{}.scan(wk, id, n) })
	f.per[wk.idx].returned += int64(wk.sc.got)
	return
}

func (f *tracedFront) flush(*worker) error { return nil }

// meanNs is the mean public-call time of kind k, and the call count.
func (f *tracedFront) meanNs(k opKind) (float64, int64) {
	var ns, n int64
	for _, t := range f.per {
		ns += t.ns[k]
		n += t.calls[k]
	}
	if n == 0 {
		return 0, 0
	}
	return float64(ns) / float64(n), n
}
