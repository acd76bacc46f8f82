package harness

import (
	"reflect"
	"testing"

	"repro/internal/clht"
	"repro/internal/core"
	"repro/internal/crash"
	"repro/internal/fastfair"
	"repro/internal/keys"
	"repro/internal/pmem"
)

// lossyOrderedNames are the ordered indexes the lossy matrix covers —
// the Fig 4 five plus WOART, matching cmd/durability.
var lossyOrderedNames = []string{"P-ART", "P-HOT", "P-BwTree", "P-Masstree", "FAST & FAIR", "WOART"}

func orderedFactory(t *testing.T, name string) func(*pmem.Heap) core.OrderedIndex {
	return func(h *pmem.Heap) core.OrderedIndex {
		idx, err := core.NewOrdered(name, h, keys.RandInt)
		if err != nil {
			t.Fatalf("NewOrdered(%s): %v", name, err)
		}
		return idx
	}
}

func hashFactory(t *testing.T, name string) func(*pmem.Heap) core.HashIndex {
	return func(h *pmem.Heap) core.HashIndex {
		idx, err := core.NewHash(name, h)
		if err != nil {
			t.Fatalf("NewHash(%s): %v", name, err)
		}
		return idx
	}
}

// TestLossyMatrix drives all 9 indexes through the lossy power-failure
// campaign under all three policies at small scale: zero LOST-ACK and
// zero CORRUPT outcomes anywhere — every crash either committed or
// vanished atomically, even when unfenced write-backs are torn.
func TestLossyMatrix(t *testing.T) {
	const loadN, postN, seed = 60, 6, 42
	for _, name := range lossyOrderedNames {
		for _, policy := range pmem.Policies {
			rep := LossyCampaignOrdered(name, orderedFactory(t, name), keys.RandInt, policy, seed, loadN, postN, 0)
			checkLossy(t, rep)
		}
	}
	for _, name := range core.HashNames {
		for _, policy := range pmem.Policies {
			rep := LossyCampaignHash(name, hashFactory(t, name), policy, seed, loadN, postN, 0)
			checkLossy(t, rep)
		}
	}
}

func checkLossy(t *testing.T, rep LossyCampaignReport) {
	t.Helper()
	if len(rep.Sites) == 0 {
		t.Errorf("%s/%v: no crash sites discovered", rep.Index, rep.Policy)
		return
	}
	if rep.Fired() == 0 {
		t.Errorf("%s/%v: no site fired", rep.Index, rep.Policy)
	}
	if !rep.Pass() {
		for _, s := range rep.Sites {
			if s.Outcome == OutcomeLostAck || s.Outcome == OutcomeCorrupt {
				t.Errorf("%s/%v site %s: %v lostAcks=%d detail=%s cycle=[%v]",
					rep.Index, rep.Policy, s.Site, s.Outcome, s.LostAcks, s.Detail, s.Cycle)
			}
		}
	}
}

// faithfulFF adapts Faithful-mode FAST & FAIR — which reproduces the
// §7.5 unpersisted-initial-allocation bug — to OrderedIndex.
type faithfulFF struct{ t *fastfair.Tree }

func (f faithfulFF) Insert(k []byte, v uint64) error { return f.t.Insert(k, v) }
func (f faithfulFF) Update(k []byte, v uint64) error { return f.t.Insert(k, v) }
func (f faithfulFF) Lookup(k []byte) (uint64, bool)  { return f.t.Lookup(k) }
func (f faithfulFF) Delete(k []byte) (bool, error)   { return f.t.Delete(k) }
func (f faithfulFF) Recover() error                  { f.t.Recover(); return nil }
func (f faithfulFF) Len() int                        { return f.t.Len() }
func (f faithfulFF) Scan(s []byte, c int, fn func([]byte, uint64) bool) int {
	return f.t.Scan(s, c, fn)
}

// TestLossyDetectsMissingPersist is the negative control: the unwind-only
// crash model can never observe Faithful mode's missing initial-allocation
// persist as data loss, but the lossy model must — under the revert
// policy the never-persisted root pointer zero-fills and acknowledged
// writes vanish.
func TestLossyDetectsMissingPersist(t *testing.T) {
	rep := LossyCampaignOrdered("FF-faithful", func(h *pmem.Heap) core.OrderedIndex {
		return faithfulFF{fastfair.NewWithMode(h, keys.RandInt, fastfair.Faithful)}
	}, keys.RandInt, pmem.PolicyRevert, 42, 60, 4, 0)
	if rep.Fired() == 0 {
		t.Fatal("no crash site fired")
	}
	if rep.Pass() {
		t.Fatalf("lossy campaign failed to flag the known durability bug:\n%s", rep)
	}
	if rep.Count(OutcomeLostAck)+rep.Count(OutcomeCorrupt) == 0 {
		t.Fatalf("no LOST-ACK/CORRUPT outcome recorded: %s", rep)
	}
}

// TestLossyDeterministic: the same seed yields the identical report,
// including every torn coin flip's consequences, regardless of workers.
func TestLossyDeterministic(t *testing.T) {
	const loadN, postN, seed = 50, 4, 7
	a := LossyCampaignOrdered("P-ART", orderedFactory(t, "P-ART"), keys.RandInt, pmem.PolicyTorn, seed, loadN, postN, 1)
	b := LossyCampaignOrdered("P-ART", orderedFactory(t, "P-ART"), keys.RandInt, pmem.PolicyTorn, seed, loadN, postN, 4)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("torn campaign not deterministic:\n%+v\n%+v", a, b)
	}
}

// TestLossyMultiCycle crashes, power-cycles, recovers — then rearms the
// injector, crashes the recovered index again, and cycles a second
// time. Acknowledged writes must survive both generations; a stale
// one-shot injector state would silently skip the second crash.
func TestLossyMultiCycle(t *testing.T) {
	heap := pmem.New(pmem.Options{Shadow: true})
	defer heap.Release()
	idx, err := core.NewOrdered("P-ART", heap, keys.RandInt)
	if err != nil {
		t.Fatal(err)
	}
	gen := keys.NewGenerator(keys.RandInt)

	committed := make([]uint64, 0, 128)
	crashLoad := func(inj *crash.Injector, lo, n int) bool {
		heap.SetInjector(inj)
		defer heap.SetInjector(nil)
		for i := lo; i < lo+n; i++ {
			if err := idx.Insert(gen.Key(uint64(i)), uint64(i)); err != nil {
				if crash.IsCrash(err) {
					return true
				}
				t.Fatalf("insert %d: %v", i, err)
			}
			committed = append(committed, uint64(i))
		}
		return false
	}
	verify := func(gen2 string) {
		for _, id := range committed {
			k := gen.Key(id)
			if v, ok := idx.Lookup(k); !ok || v != id {
				t.Fatalf("%s: acknowledged id %d lost (ok=%v v=%d)", gen2, id, ok, v)
			}
		}
	}

	inj := crash.NewNth(40)
	if !crashLoad(inj, 0, 60) {
		t.Fatal("first crash did not fire")
	}
	heap.PowerCycle(pmem.PolicyTorn, 1)
	if err := idx.Recover(); err != nil {
		t.Fatalf("first recovery: %v", err)
	}
	verify("after first cycle")

	// Same injector object, rearmed for the second generation.
	inj.Rearm()
	if !crashLoad(inj, 100, 60) {
		t.Fatal("second crash did not fire after Rearm")
	}
	heap.PowerCycle(pmem.PolicyTorn, 2)
	if err := idx.Recover(); err != nil {
		t.Fatalf("second recovery: %v", err)
	}
	verify("after second cycle")

	// And the index still accepts writes.
	if err := idx.Insert(gen.Key(999_999), 999_999); err != nil {
		t.Fatalf("post-cycle insert: %v", err)
	}
	if v, ok := idx.Lookup(gen.Key(999_999)); !ok || v != 999_999 {
		t.Fatalf("post-cycle readback: ok=%v v=%d", ok, v)
	}
}

// smallCLHT adapts a P-CLHT built with two initial buckets to
// HashIndex, so a short campaign load crosses table doublings and
// overflow chains.
type smallCLHT struct{ *clht.Index }

func (s smallCLHT) Update(k, v uint64) error { return s.Insert(k, v) }
func (s smallCLHT) Recover() error           { s.Index.Recover(); return nil }

// TestLossyCLHTResize pins P-CLHT's resize crash behaviour. In the
// 60-insert load of TestLossyMatrix the default 768-bucket table reaches
// only two sites; two initial buckets reach the rehash and overflow
// sites too. Every policy must discover the same six sites, fire all of
// them, and see each crash end CLEAN or PARTIAL exactly as listed.
func TestLossyCLHTResize(t *testing.T) {
	const loadN, postN, seed = 60, 6, 42
	want := map[string]LossyOutcome{
		"clht.insert.commit":        OutcomeClean,
		"clht.insert.overflow.init": OutcomePartial,
		"clht.insert.overflow.link": OutcomeClean,
		"clht.insert.val":           OutcomePartial,
		"clht.rehash.built":         OutcomePartial,
		"clht.rehash.swap":          OutcomePartial,
	}
	for _, policy := range pmem.Policies {
		rep := LossyCampaignHash("P-CLHT/2", func(h *pmem.Heap) core.HashIndex {
			return smallCLHT{clht.NewWithBuckets(h, 2)}
		}, policy, seed, loadN, postN, 0)
		checkLossy(t, rep)
		got := make(map[string]LossyOutcome, len(rep.Sites))
		for _, s := range rep.Sites {
			if !s.Fired {
				t.Errorf("%v: site %s did not fire", policy, s.Site)
			}
			got[s.Site] = s.Outcome
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%v: site outcomes = %v, want %v", policy, got, want)
		}
	}
}
