package main

import (
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"syscall"
	"time"
	"unsafe"

	"repro/internal/server"
)

// rung is one open-loop phase at a fixed arrival rate. Latencies are
// measured from each operation's scheduled time, so a stall is charged
// to every operation queued behind it.
type rung struct {
	dur      time.Duration
	attempts int64
	failed   int64
	ops      []sample // latency from scheduled time to completion
	lag      []sample // generator lag: actual send minus scheduled send
	rtt      []sample // wire: actual send to reply
}

// sample is one timing, placed in the phase by its scheduled time.
type sample struct {
	sched, ns int64
	kind      opKind
}

// windows is how many equal slices of a phase its percentiles are taken
// over. A reported percentile is the median of the per-slice values:
// the host's vCPU stalls, a few milliseconds each and unevenly spread,
// swing a whole-phase p99 from run to run but move a median of slices
// little.
const windows = 10

// pct is the median over the phase's windows of each window's p-th
// percentile of the samples whose kind passes keep, in microseconds.
func (r *rung) pct(s []sample, p float64, keep func(opKind) bool) float64 {
	per := make([]lats, windows)
	for _, x := range s {
		if keep(x.kind) {
			w := min(int(x.sched*windows/int64(r.dur)), windows-1)
			per[w] = append(per[w], x.ns)
		}
	}
	var vals []float64
	for _, l := range per {
		if len(l) > 0 {
			vals = append(vals, merge(l).pctUs(p))
		}
	}
	return medianOf(vals)
}

func medianOf(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	slices.Sort(v)
	return v[len(v)/2]
}

func anyKind(opKind) bool     { return true }
func readKind(k opKind) bool  { return !k.write() }
func writeKind(k opKind) bool { return k.write() }

// lateAfter marks a send as late: the generator, not the system under
// test, delayed it by more than this.
const lateAfter = 100 * time.Microsecond

// lateFrac is the share of sends the generator issued late.
func (r *rung) lateFrac() float64 {
	n := 0
	for _, l := range r.lag {
		if l.ns > int64(lateAfter) {
			n++
		}
	}
	return ratio(float64(n), float64(len(r.lag)))
}

// score is what a ladder rate is held to: its p99, or the median
// latency of its last tenth if that is higher, which it is when the
// backlog grew through the phase. Microseconds.
func (r *rung) score() float64 {
	var last lats
	for _, x := range r.ops {
		if x.sched >= int64(r.dur)*(windows-1)/windows {
			last = append(last, x.ns)
		}
	}
	return max(r.pct(r.ops, 0.99, anyKind), merge(last).pctUs(0.50))
}

// meets reports whether the rung met limit: no failed operation, and a
// score within the limit.
func (r *rung) meets(limit time.Duration) bool {
	return r.failed == 0 && len(r.ops) > 0 && r.score() <= float64(limit)/1e3
}

func (r *rung) add(p *rung) { r.addAt(p, 0) }

// addAt merges p's tallies and samples, shifting p's sample times by at
// (p ran that long after r began).
func (r *rung) addAt(p *rung, at int64) {
	r.attempts += p.attempts
	r.failed += p.failed
	for _, dst := range []struct {
		to   *[]sample
		from []sample
	}{{&r.ops, p.ops}, {&r.lag, p.lag}, {&r.rtt, p.rtt}} {
		for _, x := range dst.from {
			x.sched += at
			*dst.to = append(*dst.to, x)
		}
	}
}

// gapSource draws Poisson inter-arrival gaps for one worker or
// connection at rate/numWorkers.
type gapSource struct {
	rng  *rand.Rand
	mean float64 // ns
}

func newGaps(seed int64, worker int, rate float64) gapSource {
	return gapSource{
		rng:  rand.New(rand.NewSource(seed*7_777_777 + int64(worker)*104_729 + int64(rate))),
		mean: float64(numWorkers) / rate * 1e9,
	}
}

func (g gapSource) next() int64 { return int64(g.rng.ExpFloat64() * g.mean) }

// waitUntil waits until at least t has elapsed since start, and
// returns the elapsed time. Closer than spin to t it spins; farther, it
// sleeps in nanosleep on the caller's locked thread (see lockPacer),
// which wakes within about ten microseconds on a 2-vCPU VM.
//
// The sleep is a raw system call, so the goroutine keeps its P: a plain
// one lets the runtime hand the P on, and on waking the pacer can queue
// for up to a scheduler time slice (10 ms) behind a running goroutine.
// The Go timer is not used either: with idle Ps the runtime rounds
// sub-millisecond timer waits up to a millisecond.
func waitUntil(start time.Time, t, spin int64) int64 {
	for {
		now := int64(time.Since(start))
		if now >= t {
			return now
		}
		if d := t - now; d > spin {
			ts := syscall.NsecToTimespec(d - spin)
			syscall.RawSyscall(syscall.SYS_NANOSLEEP, uintptr(unsafe.Pointer(&ts)), 0, 0)
		}
	}
}

// Spin windows. A library worker waits on its own CPU for work it will
// run itself, so it spins the last stretch; the wire pacer shares the
// CPUs with the server and never spins.
const (
	libSpin  = int64(30 * time.Microsecond)
	wireSpin = 0
)

// lockPacer pins the calling goroutine to its own OS thread with a fine
// timer slack, so its nanosleeps wake close to the requested time.
// The goroutine must exit without unlocking, which retires the thread.
func lockPacer() {
	runtime.LockOSThread()
	const prSetTimerslack = 29
	syscall.RawSyscall(syscall.SYS_PRCTL, prSetTimerslack, 1000, 0)
}

// openLib drives the library open-loop: each worker has its own Poisson
// schedule at rate/numWorkers and executes operations synchronously, so
// an operation that overruns delays the ones behind it and that wait
// counts in their latency. gen lag is measured only for operations
// whose worker was idle at their scheduled time.
func openLib(ws []*worker, f front, rate float64, dur time.Duration, seed int64) *rung {
	r := &rung{dur: dur}
	parts := make([]rung, len(ws))
	start := time.Now()
	var wg sync.WaitGroup
	for i, wk := range ws {
		wg.Add(1)
		go func(wk *worker, p *rung) {
			defer wg.Done()
			lockPacer()
			p.dur = dur
			gaps := newGaps(seed, wk.idx, rate)
			ops0, failed0 := wk.ops, wk.failed
			var sched int64
			for {
				sched += gaps.next()
				if sched >= int64(dur) {
					break
				}
				if begin := int64(time.Since(start)); begin < sched {
					begin = waitUntil(start, sched, libSpin)
					p.lag = append(p.lag, sample{sched: sched, ns: begin - sched})
				}
				o := wk.strm.next(&wk.ids)
				wk.do(f, o)
				p.ops = append(p.ops, sample{sched: sched, ns: int64(time.Since(start)) - sched, kind: o.kind})
			}
			if err := f.flush(wk); err != nil {
				wk.fault()
			}
			p.attempts = wk.ops - ops0
			p.failed = wk.failed - failed0
		}(wk, &parts[i])
	}
	wg.Wait()
	for i := range parts {
		r.add(&parts[i])
	}
	return r
}

// flight is one request on the wire awaiting its reply.
type flight struct {
	sched, sent int64
	o           op
	ver         uint32 // update: version written; read: ledger floor
}

// openWire drives the wire open-loop: one pacer goroutine on its own
// thread sends every connection's Poisson schedule, writing all
// requests that are due in one write per connection, and one receiver
// per connection checks replies in order.
func openWire(conns []*wireConn, ws []*worker, rate float64, dur time.Duration, seed int64) *rung {
	r := &rung{dur: dur}
	parts := make([]rung, len(conns))
	chans := make([]chan flight, len(conns))
	start := time.Now()
	var wg sync.WaitGroup
	for i := range conns {
		// Sized for every request a phase can have outstanding, so the
		// pacer never waits on a receiver.
		chans[i] = make(chan flight, int(rate*dur.Seconds())+1024)
		parts[i].dur = dur
		wg.Add(1)
		go func(c *wireConn, wk *worker, ch chan flight, p *rung) {
			defer wg.Done()
			receive(c, wk, ch, p, start)
		}(conns[i], ws[i], chans[i], &parts[i])
	}
	pacerDone := make(chan []sample)
	go func() {
		lockPacer()
		var lags []sample
		gaps := make([]gapSource, len(conns))
		next := make([]int64, len(conns))
		for i := range conns {
			gaps[i] = newGaps(seed, i, rate)
			next[i] = gaps[i].next()
		}
		var batch []flight
		for {
			first := 0
			for i := range next {
				if next[i] < next[first] {
					first = i
				}
			}
			if next[first] >= int64(dur) {
				break
			}
			now := waitUntil(start, next[first], wireSpin)
			for i, c := range conns {
				wk := ws[i]
				led := wk.st.led
				batch = batch[:0]
				c.out = c.out[:0]
				for next[i] <= now && next[i] < int64(dur) {
					o := wk.strm.next(&wk.ids)
					fl := flight{sched: next[i], o: o}
					v := valueOf(o.id, 0)
					switch o.kind {
					case opRead:
						fl.ver = led.floor(o.id)
					case opUpdate:
						fl.ver = led.beginWrite(o.id)
						v = valueOf(o.id, fl.ver)
					}
					c.appendOp(led, o, v)
					batch = append(batch, fl)
					next[i] += gaps[i].next()
				}
				if len(batch) == 0 {
					continue
				}
				sent := int64(time.Since(start))
				for _, fl := range batch {
					fl.sent = sent
					lags = append(lags, sample{sched: fl.sched, ns: sent - fl.sched})
					ch := chans[i]
					ch <- fl
				}
				if _, err := c.nc.Write(c.out); err != nil {
					led.fail("connection %d: write: %v", i, err)
				}
			}
		}
		for _, ch := range chans {
			close(ch)
		}
		pacerDone <- lags
	}()
	lags := <-pacerDone
	wg.Wait()
	for i := range parts {
		r.add(&parts[i])
	}
	r.lag = lags
	return r
}

// receive reads one reply per flight, in order, checking each against
// the ledger. A lost reply is a correctness failure: every request sent
// must be answered.
func receive(c *wireConn, wk *worker, ch chan flight, p *rung, start time.Time) {
	led := wk.st.led
	for fl := range ch {
		p.attempts++
		wk.ops++
		rp, err := server.ReadReply(c.br)
		end := int64(time.Since(start))
		if err != nil {
			led.fail("connection %d: reply lost: %v", wk.idx, err)
			p.failed++
			wk.fault()
			for range ch {
				p.attempts++
				p.failed++
			}
			return
		}
		p.rtt = append(p.rtt, sample{sched: fl.sched, ns: end - fl.sent, kind: fl.o.kind})
		p.ops = append(p.ops, sample{sched: fl.sched, ns: end - fl.sched, kind: fl.o.kind})
		var ferr error
		if fl.o.kind == opRead {
			var v uint64
			var found bool
			v, found, ferr = readResult(led, rp)
			if ferr == nil {
				led.checkRead(fl.o.id, fl.ver, v, found)
			}
		} else if ferr = writeResult(led, rp); ferr == nil {
			wk.acked(fl.o.kind, fl.o.id, fl.ver)
		}
		if ferr != nil {
			p.failed++
			wk.fault()
		}
	}
}
