// Package clht implements P-CLHT, the RECIPE conversion of the Cache-Line
// Hash Table (David et al., ASPLOS '15) to persistent memory (§6.2).
//
// CLHT restricts each bucket to one 64-byte cache line holding three
// key/value pairs, a lock word, and an overflow pointer, so the common
// case costs one cache-line access. Readers are non-blocking and use
// atomic snapshots of key/value pairs; writers lock the bucket and commit
// each insert or delete with a single 8-byte atomic store (the key write),
// ordering the value store before it. Rehashing copies buckets into a new
// table and commits it by atomically swapping the table pointer; writers
// that meet a doubling in progress help copy it (see rehash).
//
// CLHT therefore satisfies RECIPE Condition #1 — every update becomes
// visible through one hardware-atomic store — and the conversion consists
// only of cache-line write-backs and fences after the appropriate stores
// (30 LOC in the paper). The persistence points in this file are marked
// with "RECIPE:" comments; cmd/loccount counts them to regenerate Table 1.
package clht

import (
	"errors"
	"runtime"
	"sync/atomic"

	"repro/internal/crash"
	"repro/internal/pmem"
	"repro/internal/pmlock"
)

// EntriesPerBucket is the number of key/value pairs per 64-byte bucket.
const EntriesPerBucket = 3

// Simulated persistent layout of a bucket: exactly one cache line.
//
//	off  0..23  keys[3]
//	off 24..47  vals[3]
//	off 48..55  lock (not meaningfully persistent; re-initialised on recovery)
//	off 56..63  next
const (
	bucketBytes = 64
	offKeys     = 0
	offVals     = 24
	offNext     = 56
)

// chunkBuckets is the number of old buckets one copier claims at a time
// while a doubling is in progress.
const chunkBuckets = 128

// ErrZeroKey is returned for key 0, which CLHT reserves as the empty-slot
// marker.
var ErrZeroKey = errors.New("clht: key 0 is reserved")

// bucket is one cache line: the Go struct is exactly bucketBytes, so a
// table's bucket array maps line for line onto its allocation. A bucket
// does not store its own PM location; chain walks carry it (see loc).
type bucket struct {
	lock pmlock.Mutex
	keys [EntriesPerBucket]atomic.Uint64
	vals [EntriesPerBucket]atomic.Uint64
	next atomic.Pointer[overflow]
}

// overflow is a chained bucket with its own one-line allocation.
type overflow struct {
	bucket
	pm pmem.Obj
}

// loc is a bucket together with its PM location: table buckets sit at
// index × bucketBytes in the table's allocation, overflow buckets at
// offset 0 of their own.
type loc struct {
	b   *bucket
	pm  pmem.Obj
	off uintptr
}

// next moves to the following bucket of the chain; b is nil past the
// end.
func (l *loc) next() {
	if ov := l.b.next.Load(); ov != nil {
		*l = loc{&ov.bucket, ov.pm, 0}
	} else {
		l.b = nil
	}
}

type table struct {
	pm      pmem.Obj
	buckets []bucket
	mask    uint64
	seed    uint64
}

// slot maps key to its chain. Doublings keep the seed, so chain i of an
// n-bucket table splits into chains i and i+n of its successor.
func (t *table) slot(key uint64) uint64 { return mix(key^t.seed) & t.mask }

// head returns the first bucket of chain i.
func (t *table) head(i uint64) loc {
	return loc{&t.buckets[i], t.pm, uintptr(i) * bucketBytes}
}

func mix(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xFF51AFD7ED558CCD
	x ^= x >> 33
	x *= 0xC4CEB9FE1A85EC53
	return x ^ (x >> 33)
}

// growth is a doubling in progress. The resizer publishes it; writers
// that find their head bucket locked by it claim chunks too.
type growth struct {
	old, nt *table
	chunks  int64
	claimed atomic.Int64 // chunks handed out
	done    atomic.Int64 // chunks copied, persisted and fenced
}

// Index is a persistent cache-line hash table. Keys are non-zero uint64s
// and values are uint64s, matching the paper's evaluation of unordered
// indexes with 8-byte integer keys. Index is safe for concurrent use.
type Index struct {
	heap  *pmem.Heap
	root  pmem.Obj // persistent root line holding the current table pointer
	tab   atomic.Pointer[table]
	grow  atomic.Pointer[growth] // the doubling of tab in progress, if any
	count atomic.Int64

	resize pmlock.Mutex

	// maxChain is the overflow-chain length that triggers rehashing.
	maxChain int
}

// DefaultBuckets is the initial bucket count; 768 buckets ≈ the paper's
// 48 KB starting table (§7: "a starting hash table size of 48KB").
const DefaultBuckets = 768

// New returns an empty P-CLHT backed by heap with the default initial
// size.
func New(heap *pmem.Heap) *Index { return NewWithBuckets(heap, DefaultBuckets) }

// NewWithBuckets returns an empty P-CLHT with n initial buckets (rounded
// up to a power of two).
func NewWithBuckets(heap *pmem.Heap, n int) *Index {
	if n < 1 {
		n = 1
	}
	p := 1
	for p < n {
		p *= 2
	}
	idx := &Index{heap: heap, maxChain: 2}
	idx.root = heap.Alloc(64)
	heap.Shadow(idx.root, &idx.tab)
	t := idx.newTable(p, 0x5bd1e995)
	idx.tab.Store(t)
	// RECIPE: persist the freshly initialised table and the root pointer
	// before the index is usable (the durability bug the paper found in
	// FAST & FAIR and CCEH was an unpersisted initial allocation).
	heap.Persist(t.pm, 0, uintptr(p)*bucketBytes)
	heap.PersistFence(idx.root, 0, 64)
	return idx
}

// newTable allocates an empty table. Its lines start dirty; the caller
// persists them once they hold their final content.
func (idx *Index) newTable(nbuckets int, seed uint64) *table {
	t := &table{
		buckets: make([]bucket, nbuckets),
		mask:    uint64(nbuckets - 1),
		seed:    seed,
	}
	t.pm = idx.heap.Alloc(uintptr(nbuckets) * bucketBytes)
	idx.heap.ShadowSlice(t.pm, t.buckets, bucketBytes)
	return t
}

// Lookup returns the value stored for key. Reads are non-blocking: they
// walk the bucket chain using atomic loads and take an atomic snapshot of
// each candidate pair by re-checking the key after reading the value.
func (idx *Index) Lookup(key uint64) (uint64, bool) {
	if key == 0 {
		return 0, false
	}
	t := idx.tab.Load()
	for l := t.head(t.slot(key)); l.b != nil; l.next() {
		idx.heap.Load(l.pm, l.off, bucketBytes)
		b := l.b
		for i := 0; i < EntriesPerBucket; i++ {
			if b.keys[i].Load() == key {
				v := b.vals[i].Load()
				if b.keys[i].Load() == key {
					return v, true
				}
			}
		}
	}
	return 0, false
}

// lockHead locks the head bucket of key's chain in the current table.
// Buckets a doubling has copied stay locked for good, so rather than
// spin on one, a writer copies unclaimed chunks of that doubling and
// retries on the new table once it is published.
func (idx *Index) lockHead(key uint64) (*table, loc) {
	for i := 0; ; i++ {
		t := idx.tab.Load()
		l := t.head(t.slot(key))
		if l.b.lock.TryLock() {
			// A resize may have swapped the table while we waited for
			// the bucket lock; retry against the new table.
			if idx.tab.Load() == t {
				return t, l
			}
			l.b.lock.Unlock()
			continue
		}
		if idx.tab.Load() != t {
			continue
		}
		if g := idx.grow.Load(); g != nil && g.old == t {
			g.copy(idx)
		}
		yield(i)
	}
}

// yield gives up the processor on every 64th spin, as pmlock's Lock
// does.
func yield(spins int) {
	if spins%64 == 63 {
		runtime.Gosched()
	}
}

// Insert stores value under key, overwriting any existing value. It
// returns ErrZeroKey for key 0 and crash.ErrCrashed when interrupted by a
// simulated crash.
func (idx *Index) Insert(key, value uint64) (err error) {
	if key == 0 {
		return ErrZeroKey
	}
	defer recoverCrash(&err)
	for {
		t, head := idx.lockHead(key)
		ok := idx.insertLocked(head, key, value)
		head.b.lock.Unlock()
		if ok {
			return nil
		}
		// Chain too long: rehash and retry.
		idx.rehash(t)
	}
}

// insertLocked performs the insert under the bucket lock. It returns false
// when the chain is over the overflow threshold and a resize is required.
func (idx *Index) insertLocked(head loc, key, value uint64) bool {
	var free, last loc
	freeIdx := -1
	chain := 0
	for l := head; l.b != nil; l.next() {
		idx.heap.Load(l.pm, l.off, bucketBytes)
		b := l.b
		for i := 0; i < EntriesPerBucket; i++ {
			k := b.keys[i].Load()
			if k == key {
				// Update: a single atomic 8-byte store is the commit.
				b.vals[i].Store(value)
				idx.heap.Dirty(l.pm, l.off+offVals+uintptr(i)*8, 8)
				// RECIPE: flush + fence after the committing store.
				idx.heap.PersistFence(l.pm, l.off+offVals+uintptr(i)*8, 8)
				idx.heap.CrashPoint("clht.update.commit")
				return true
			}
			if k == 0 && freeIdx < 0 {
				free, freeIdx = l, i
			}
		}
		last = l
		chain++
	}
	if freeIdx >= 0 {
		// Write the value first, order it, then commit with the atomic
		// key store. Both live in the same cache line, so one write-back
		// after the commit persists the pair; an eviction between the
		// stores persists only the value, which is invisible (key still
		// 0) and therefore harmless.
		free.b.vals[freeIdx].Store(value)
		idx.heap.Dirty(free.pm, free.off+offVals+uintptr(freeIdx)*8, 8)
		// RECIPE: fence so the value store is ordered before the key
		// store on its way to PM.
		idx.heap.Fence()
		idx.heap.CrashPoint("clht.insert.val")
		free.b.keys[freeIdx].Store(key)
		idx.heap.Dirty(free.pm, free.off+offKeys+uintptr(freeIdx)*8, 8)
		// RECIPE: flush + fence after the committing key store.
		idx.heap.PersistFence(free.pm, free.off, bucketBytes)
		idx.heap.CrashPoint("clht.insert.commit")
		idx.count.Add(1)
		return true
	}
	if chain > idx.maxChain {
		return false
	}
	// Append an overflow bucket: initialise it off-path, persist it, then
	// commit by atomically linking it.
	nb := &overflow{pm: idx.heap.Alloc(bucketBytes)}
	idx.heap.Shadow(nb.pm, nb)
	nb.keys[0].Store(key)
	nb.vals[0].Store(value)
	// RECIPE: persist the new bucket before it becomes reachable.
	idx.heap.Persist(nb.pm, 0, bucketBytes)
	idx.heap.Fence()
	idx.heap.CrashPoint("clht.insert.overflow.init")
	last.b.next.Store(nb)
	idx.heap.Dirty(last.pm, last.off+offNext, 8)
	// RECIPE: flush + fence after the committing link store.
	idx.heap.PersistFence(last.pm, last.off+offNext, 8)
	idx.heap.CrashPoint("clht.insert.overflow.link")
	idx.count.Add(1)
	return true
}

// Delete removes key, returning true if it was present.
func (idx *Index) Delete(key uint64) (deleted bool, err error) {
	if key == 0 {
		return false, ErrZeroKey
	}
	defer recoverCrash(&err)
	_, head := idx.lockHead(key)
	for l := head; l.b != nil; l.next() {
		for i := 0; i < EntriesPerBucket; i++ {
			if l.b.keys[i].Load() == key {
				// Deletion commits with a single atomic store of 0 to the
				// key (§6.2).
				l.b.keys[i].Store(0)
				idx.heap.Dirty(l.pm, l.off+offKeys+uintptr(i)*8, 8)
				// RECIPE: flush + fence after the committing store.
				idx.heap.PersistFence(l.pm, l.off+offKeys+uintptr(i)*8, 8)
				idx.heap.CrashPoint("clht.delete.commit")
				idx.count.Add(-1)
				head.b.lock.Unlock()
				return true, nil
			}
		}
	}
	head.b.lock.Unlock()
	return false, nil
}

// rehash doubles the table: it builds the new table off-path, persists
// it, and commits with a single atomic swap of the table pointer — the
// SMO variant of Condition #1 (§6.2: re-hashing uses copy-on-write and
// an atomic swap). The paper attributes P-CLHT's Load-A deficit vs CCEH
// to this globally locked scheme (§7.2); here the old buckets are locked
// chunk by chunk as they are copied, and writers that hit a copied
// bucket help copy the rest instead of waiting. A writer that needs a
// doubling already under way helps it too.
func (idx *Index) rehash(old *table) {
	for i := 0; !idx.resize.TryLock(); i++ {
		if idx.tab.Load() != old {
			return // someone else already resized
		}
		if g := idx.grow.Load(); g != nil && g.old == old {
			g.copy(idx)
		}
		yield(i)
	}
	defer idx.resize.Unlock()
	if idx.tab.Load() != old {
		return // someone else already resized
	}
	n := len(old.buckets)
	g := &growth{old: old, nt: idx.newTable(2*n, old.seed), chunks: int64((n + chunkBuckets - 1) / chunkBuckets)}
	idx.grow.Store(g)
	g.copy(idx)
	// Helpers may still be copying the last chunks they claimed.
	for i := 0; g.done.Load() < g.chunks; i++ {
		yield(i)
	}
	// RECIPE: every copier persisted and fenced its chunk, so the whole
	// table is durable; commit with the atomic table-pointer swap, then
	// persist the root line.
	idx.heap.CrashPoint("clht.rehash.built")
	idx.tab.Store(g.nt)
	idx.heap.Dirty(idx.root, 0, 8)
	idx.heap.PersistFence(idx.root, 0, 8)
	idx.heap.CrashPoint("clht.rehash.swap")
	// The old buckets stay locked: no writer reaches the old table any
	// more without noticing the swap.
	idx.grow.Store(nil)
}

// copy claims and copies chunks until none is left unclaimed.
func (g *growth) copy(idx *Index) {
	for g.claimed.Load() < g.chunks {
		c := g.claimed.Add(1) - 1
		if c >= g.chunks {
			return
		}
		idx.copyChunk(g, c)
		g.done.Add(1)
	}
}

// copyChunk copies old chains [lo, hi) of chunk c into the new table.
// Each old head is locked before its chain is read and is never
// unlocked, so no writer can change a copied chain. Old chain i
// lands only in new chains i and i+n, which the copier fills front to
// back as two sequential streams. The copier then writes back the
// destination lines and new overflow buckets and fences before counting
// the chunk done: a fence orders only its own thread's write-backs.
func (idx *Index) copyChunk(g *growth, c int64) {
	n := uint64(len(g.old.buckets))
	lo := uint64(c) * chunkBuckets
	hi := min(lo+chunkBuckets, n)
	var ovf []*overflow
	for i := lo; i < hi; i++ {
		g.old.buckets[i].lock.Lock()
		dst := [2]filler{{b: &g.nt.buckets[i]}, {b: &g.nt.buckets[i+n]}}
		for l := g.old.head(i); l.b != nil; l.next() {
			for e := 0; e < EntriesPerBucket; e++ {
				if k := l.b.keys[e].Load(); k != 0 {
					f := &dst[0]
					if mix(k^g.old.seed)&n != 0 {
						f = &dst[1]
					}
					ovf = idx.put(f, k, l.b.vals[e].Load(), ovf)
				}
			}
		}
	}
	// RECIPE: persist the chunk's destination lines and overflow
	// buckets, then fence this copier's write-backs.
	idx.heap.Persist(g.nt.pm, uintptr(lo)*bucketBytes, uintptr(hi-lo)*bucketBytes)
	idx.heap.Persist(g.nt.pm, uintptr(lo+n)*bucketBytes, uintptr(hi-lo)*bucketBytes)
	for _, ov := range ovf {
		idx.heap.Persist(ov.pm, 0, bucketBytes)
	}
	idx.heap.Fence()
}

// filler is the append position of a new, not yet published chain.
type filler struct {
	b    *bucket
	used int
}

// put appends a pair to f's chain, chaining an overflow bucket when the
// current one is full, and returns ovf with any new bucket appended.
func (idx *Index) put(f *filler, key, value uint64, ovf []*overflow) []*overflow {
	if f.used == EntriesPerBucket {
		ov := &overflow{pm: idx.heap.Alloc(bucketBytes)}
		idx.heap.Shadow(ov.pm, ov)
		f.b.next.Store(ov)
		f.b, f.used = &ov.bucket, 0
		ovf = append(ovf, ov)
	}
	f.b.keys[f.used].Store(key)
	f.b.vals[f.used].Store(value)
	f.used++
	return ovf
}

// Len returns the number of live keys.
func (idx *Index) Len() int { return int(idx.count.Load()) }

// Range calls fn for every live key/value pair until fn returns false.
// Enumeration order is unspecified. Each pair is read with the same
// atomic (value, key-recheck) snapshot lookups use, so Range is safe
// against concurrent writers, but it only observes a consistent cut of
// the table when writers are quiesced (the migration copy path holds
// the handoff window exclusively while it enumerates).
func (idx *Index) Range(fn func(key, value uint64) bool) {
	t := idx.tab.Load()
	for i := range t.buckets {
		for l := t.head(uint64(i)); l.b != nil; l.next() {
			idx.heap.Load(l.pm, l.off, bucketBytes)
			for e := 0; e < EntriesPerBucket; e++ {
				k := l.b.keys[e].Load()
				if k == 0 {
					continue
				}
				v := l.b.vals[e].Load()
				if l.b.keys[e].Load() != k {
					continue
				}
				if !fn(k, v) {
					return
				}
			}
		}
	}
}

// Buckets returns the current bucket count (for tests and capacity
// reporting).
func (idx *Index) Buckets() int { return len(idx.tab.Load().buckets) }

// Recover re-initialises all locks, modelling the lock-table
// re-initialisation a RECIPE index performs when restarting after a crash
// (§6, "Lock initialization"). CLHT needs no other recovery work: a
// crashed insert left either an invisible value store (key still 0) or a
// fully committed pair.
func (idx *Index) Recover() {
	idx.resize.Reset()
	idx.grow.Store(nil)
	t := idx.tab.Load()
	for i := range t.buckets {
		for l := t.head(uint64(i)); l.b != nil; l.next() {
			l.b.lock.Reset()
		}
	}
}

func recoverCrash(err *error) {
	if r := recover(); r != nil {
		*err = crash.Recover(r)
	}
}
