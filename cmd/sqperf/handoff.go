package main

import (
	"context"
	"fmt"
	"math/big"
	"math/rand/v2"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"synchq"
	"synchq/cmd/sqperf/internal/perf"
)

// Items are int64s that carry their own provenance, so consumers can check
// every delivery without shared state: the producer ID, the producer's
// sequence number, and a check tag that the seed derives from the
// sequence number.
const (
	pidShift = 56
	seqShift = 16
	seqMask  = 1<<(pidShift-seqShift) - 1
	tagMask  = 1<<seqShift - 1

	// poison ends an untimed consumer once the producers have exited.
	poison int64 = -1

	// One item in 1<<sampleShift carries its put-entry time (and, in the
	// traced run, one call in as many is timed as a span). Reading the
	// clock on every operation costs a third of the pair throughput.
	sampleShift = 6
	sampleMask  = 1<<sampleShift - 1

	ringSize     = 256 // in-flight sampled put-entry times per producer
	maxProducers = 4
	reservoir    = 1 << 17 // latency samples kept per consumer
)

// inputs are everything a workload's load generators read, derived from
// the seed before any goroutine starts.
type inputs struct {
	tags  [tagMask + 1]uint16
	timed [4096]bool // timed-fanout: this sequence number uses OfferTimeout
}

func newInputs(seed uint64) *inputs {
	rng := rand.New(rand.NewPCG(seed, 0x5eed))
	in := &inputs{}
	for i := range in.tags {
		in.tags[i] = uint16(rng.Uint32())
	}
	for i := range in.timed {
		in.timed[i] = rng.IntN(4) == 0 // 3 Put per OfferTimeout on average
	}
	return in
}

func (in *inputs) encode(pid int, seq uint64) int64 {
	return int64(uint64(pid)<<pidShift | seq<<seqShift | uint64(in.tags[seq&tagMask]))
}

// handoffSpec is a closed-loop hand-off workload: producers and consumers
// loop on one queue until the measured phase ends.
type handoffSpec struct {
	producers, consumers int
	newQueue             func(m *synchq.Metrics) *synchq.SynchronousQueue[int64]
	produce              func(r *handoffRun, p *producer)
	consume              func(r *handoffRun, c *consumer)
	// ordered: per consumer, each producer's sequence numbers must rise.
	// Every untimed or timed single-item hand-off guarantees it (a producer
	// starts item n+1 only after item n was taken); batches do not promise
	// it across consumers.
	ordered bool
	// poison: the single consumer blocks untimed and is ended by a poison.
	poison bool
}

type handoffRun struct {
	spec      *handoffSpec
	in        *inputs
	q         *synchq.SynchronousQueue[int64]
	epoch     time.Time
	stop      atomic.Bool // producers finish their current operation and exit
	ctx       context.Context
	cancel    context.CancelFunc // every item was taken: consumers exit
	measuring atomic.Bool        // consumers keep latency samples
	firstOnce sync.Once
	firstAt   int64         // when the first item arrived, ns after epoch
	first     chan struct{} // closed once firstAt is set
	tr        *perf.Tracer
	prods     []*producer
	cons      []*consumer
	pwg, cwg  sync.WaitGroup
}

type producer struct {
	id      int
	next    uint64 // sequence number of the next item
	retries int64  // timed offers that expired and were retried
	ring    [ringSize]struct {
		seq atomic.Uint64 // sampled sequence number + 1
		at  atomic.Int64
	}
	_ [64]byte
}

type tally struct {
	n, sum, sumsq uint64
	last          int64
}

type consumer struct {
	got    atomic.Int64 // items received, read by the window sampler
	n      int64
	calls  int64 // receiving calls that returned items
	misses int64 // timed polls that expired
	bad    int64
	per    [maxProducers]tally
	lat    []float64
	seen   uint64
	rng    *rand.Rand
	_      [64]byte
}

func newHandoffRun(spec *handoffSpec, in *inputs, tr *perf.Tracer, keep int, seed uint64) *handoffRun {
	r := &handoffRun{spec: spec, in: in, tr: tr, epoch: time.Now(), first: make(chan struct{})}
	r.ctx, r.cancel = context.WithCancel(context.Background())
	for i := 0; i < spec.producers; i++ {
		r.prods = append(r.prods, &producer{id: i})
	}
	for i := 0; i < spec.consumers; i++ {
		c := &consumer{lat: make([]float64, 0, keep), rng: rand.New(rand.NewPCG(seed, uint64(i)))}
		for j := range c.per {
			c.per[j].last = -1
		}
		r.cons = append(r.cons, c)
	}
	return r
}

func (r *handoffRun) now() int64 { return int64(time.Since(r.epoch)) }

func (r *handoffRun) start() {
	for _, c := range r.cons {
		r.cwg.Add(1)
		go func(c *consumer) {
			defer r.cwg.Done()
			r.spec.consume(r, c)
		}(c)
	}
	for _, p := range r.prods {
		r.pwg.Add(1)
		go func(p *producer) {
			defer r.pwg.Done()
			r.spec.produce(r, p)
		}(p)
	}
}

func (r *handoffRun) delivered() int64 {
	var n int64
	for _, c := range r.cons {
		n += c.got.Load()
	}
	return n
}

func (r *handoffRun) sent() int64 {
	var n int64
	for _, p := range r.prods {
		n += int64(p.next)
	}
	return n
}

// stamp records item seq's put-entry time when seq is sampled.
func (r *handoffRun) stamp(p *producer, seq uint64) {
	if seq&sampleMask == 0 {
		s := &p.ring[(seq>>sampleShift)&(ringSize-1)]
		s.at.Store(r.now())
		s.seq.Store(seq + 1)
	}
}

// receive checks and counts one delivered item. at caches the receive
// time across one call's items; 0 means not yet read.
func (r *handoffRun) receive(c *consumer, v int64, at *int64) {
	pid, seq := int(uint64(v)>>pidShift), uint64(v)>>seqShift&seqMask
	if pid >= len(r.prods) || uint16(v) != r.in.tags[seq&tagMask] {
		c.bad++
		return
	}
	t := &c.per[pid]
	if r.spec.ordered && int64(seq) <= t.last {
		c.bad++
	}
	t.n++
	t.sum += seq
	t.sumsq += seq * seq
	t.last = int64(seq)
	c.n++
	// Publishing every count would add a locked store to every item; the
	// window sampler can lag by 63 items.
	if c.n&63 == 0 {
		c.got.Store(c.n)
	}
	if c.n == 1 {
		r.firstOnce.Do(func() {
			r.firstAt = r.now()
			close(r.first)
		})
	}
	if seq&sampleMask == 0 && r.measuring.Load() {
		s := &r.prods[pid].ring[(seq>>sampleShift)&(ringSize-1)]
		if s.seq.Load() == seq+1 {
			if *at == 0 {
				*at = r.now()
			}
			c.keep(float64(*at - s.at.Load()))
		}
	}
}

// keep adds a latency sample to the consumer's reservoir: every sample
// until it is full, then a uniform random subset.
func (c *consumer) keep(ns float64) {
	c.seen++
	if len(c.lat) < cap(c.lat) {
		c.lat = append(c.lat, ns)
	} else if j := c.rng.Uint64N(c.seen); j < uint64(len(c.lat)) {
		c.lat[j] = ns
	}
}

// finish stops the producers, then the consumers. A producer's put returns
// only once a consumer took the item, so once the producers exit nothing
// is left to take: consumers in a timed or cancelable take see the
// canceled context, and the one untimed consumer (pair) takes a poison.
func (r *handoffRun) finish() error {
	r.stop.Store(true)
	r.pwg.Wait()
	r.cancel()
	if r.spec.poison {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := r.q.PutContext(ctx, poison); err != nil {
			return fmt.Errorf("ending the consumer: %w", err)
		}
	}
	r.cwg.Wait()
	for _, c := range r.cons {
		c.got.Store(c.n)
	}
	return nil
}

// check verifies exactly-once delivery: per producer, the consumers'
// counts, sums and sums of squares of sequence numbers must equal those of
// 0..sent-1, and no item may carry a wrong tag or arrive out of order.
func (r *handoffRun) check() []string {
	var probs []string
	for _, c := range r.cons {
		if c.bad > 0 {
			probs = append(probs, fmt.Sprintf("a consumer saw %d corrupt or out-of-order items", c.bad))
		}
	}
	for pid, p := range r.prods {
		var got tally
		for _, c := range r.cons {
			got.n += c.per[pid].n
			got.sum += c.per[pid].sum
			got.sumsq += c.per[pid].sumsq
		}
		// 0+1+…+(n-1) and 0²+1²+…+(n-1)², reduced mod 2⁶⁴ like the tallies.
		n := new(big.Int).SetUint64(p.next)
		sum := new(big.Int).Mul(n, new(big.Int).Sub(n, big.NewInt(1)))
		sum.Rsh(sum, 1)
		sq := new(big.Int).Mul(sum, new(big.Int).Sub(new(big.Int).Lsh(n, 1), big.NewInt(1)))
		sq.Div(sq, big.NewInt(3))
		wantSum, wantSq := low64(sum), low64(sq)
		if got.n != p.next || got.sum != wantSum || got.sumsq != wantSq {
			probs = append(probs, fmt.Sprintf("producer %d: sent %d items, consumers counted %d (sums match: %v)",
				pid, p.next, got.n, got.sum == wantSum && got.sumsq == wantSq))
		}
	}
	return probs
}

func low64(x *big.Int) uint64 {
	return new(big.Int).And(x, new(big.Int).SetUint64(^uint64(0))).Uint64()
}

// windowsFor splits a measured phase into the windows whose rates are
// medianed: 1 s windows, or five equal ones for phases under 2 s.
func windowsFor(measure time.Duration) (int, time.Duration) {
	if measure >= 2*time.Second {
		return int(measure / time.Second), time.Second
	}
	return 5, measure / 5
}

// runHandoff runs spec for warmup + measure and returns the measured
// phase. m instruments the queue when non-nil; tr records spans when
// non-nil.
func runHandoff(spec *handoffSpec, in *inputs, seed uint64, warmup, measure time.Duration, m *synchq.Metrics, tr *perf.Tracer) phase {
	r := newHandoffRun(spec, in, tr, reservoir, seed)
	r.q = spec.newQueue(m)
	r.start()

	time.Sleep(warmup)
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	st0 := m.Stats()
	fab0, _ := r.q.FabricStats()
	d0, t0 := r.delivered(), time.Now()
	r.measuring.Store(true)

	var ph phase
	n, w := windowsFor(measure)
	prev, prevT := d0, t0
	for i := 1; i <= n; i++ {
		time.Sleep(time.Until(t0.Add(time.Duration(i) * w)))
		d, now := r.delivered(), time.Now()
		ph.rates = append(ph.rates, float64(d-prev)/now.Sub(prevT).Seconds())
		prev, prevT = d, now
	}
	r.measuring.Store(false)
	runtime.ReadMemStats(&ms1)
	ph.ops = prev - d0
	ph.counters = diffStats(m.Stats(), st0)
	fab1, _ := r.q.FabricStats()
	ph.width, ph.widthChg = r.q.Shards(), fab1.WidthChanges-fab0.WidthChanges
	if ph.ops > 0 {
		ph.bytes = float64(ms1.TotalAlloc-ms0.TotalAlloc) / float64(ph.ops)
	} else {
		ph.probs = append(ph.probs, "no item was delivered in the measured phase")
	}

	if err := r.finish(); err != nil {
		ph.probs = append(ph.probs, err.Error())
	} else {
		ph.probs = append(ph.probs, r.check()...)
	}
	var received, bad, calls, misses, retries int64
	for _, c := range r.cons {
		ph.lat = append(ph.lat, c.lat...)
		received += c.n
		bad += c.bad
		calls += c.calls
		misses += c.misses
	}
	for _, p := range r.prods {
		retries += p.retries
	}
	ph.attempted = r.sent()
	ph.failed = max(0, ph.attempted-received) + bad
	ph.fill = ratio(received, calls)
	ph.diag = append(ph.diag,
		metric{"offer_expired_per_kop", 1000 * ratio(retries, received), "1/kop"},
		metric{"poll_expired_per_kop", 1000 * ratio(misses, received), "1/kop"})
	return ph
}

// setupHandoff times one set-up: building the queue and starting the
// producers and consumers, up to the first delivered item, as the consumer
// that took it clocks it. The caller blocks meanwhile, leaving both CPUs to
// the goroutines under test. The run is then stopped and checked like a
// measured one.
func setupHandoff(spec *handoffSpec, in *inputs, seed uint64) (time.Duration, []string) {
	r := newHandoffRun(spec, in, nil, 16, seed)
	r.epoch = time.Now()
	r.q = spec.newQueue(nil)
	r.start()
	<-r.first
	d := time.Duration(r.firstAt)
	if err := r.finish(); err != nil {
		return d, []string{err.Error()}
	}
	return d, r.check()
}

// diffStats subtracts counter snapshots (b from a).
func diffStats(a, b synchq.Stats) map[string]int64 {
	out := make(map[string]int64, len(a.Counters))
	for k, v := range a.Counters {
		out[k] = v - b.Counters[k]
	}
	return out
}

// The three hand-off workloads.

var pairSpec = &handoffSpec{
	producers: 1, consumers: 1, ordered: true, poison: true,
	newQueue: func(m *synchq.Metrics) *synchq.SynchronousQueue[int64] {
		return synchq.New[int64](synchq.Fair(true), synchq.Instrument(m))
	},
	produce: func(r *handoffRun, p *producer) {
		for seq := uint64(0); !r.stop.Load(); seq++ {
			v := r.in.encode(p.id, seq)
			r.stamp(p, seq)
			if r.tr != nil && seq&sampleMask == 0 {
				t0 := r.tr.Now()
				r.q.Put(v)
				r.tr.Add("synchq.put", r.tr.NewID(), 0, t0, r.tr.Now())
			} else {
				r.q.Put(v)
			}
			p.next = seq + 1
		}
	},
	consume: func(r *handoffRun, c *consumer) {
		for k := 0; ; k++ {
			var v int64
			if r.tr != nil && k&sampleMask == 0 {
				t0 := r.tr.Now()
				v = r.q.Take()
				r.tr.Add("synchq.take", r.tr.NewID(), 0, t0, r.tr.Now())
			} else {
				v = r.q.Take()
			}
			if v == poison {
				return
			}
			c.calls++
			var at int64
			r.receive(c, v, &at)
		}
	},
}

// fanoutPatience is the timed-fanout workload's offer and poll patience.
const fanoutPatience = 10 * time.Microsecond

var fanoutSpec = &handoffSpec{
	producers: 2, consumers: 6, ordered: true,
	newQueue: func(m *synchq.Metrics) *synchq.SynchronousQueue[int64] {
		// Counters stay on, as an operator runs them.
		if m == nil {
			m = synchq.NewMetrics()
		}
		return synchq.New[int64](synchq.Fair(true), synchq.AutoShard(), synchq.Instrument(m))
	},
	produce: func(r *handoffRun, p *producer) {
		for seq := uint64(0); !r.stop.Load(); seq++ {
			v := r.in.encode(p.id, seq)
			timed := r.in.timed[seq%uint64(len(r.in.timed))]
			traced := r.tr != nil && seq&sampleMask == 0
			var root uint64
			var t0 int64
			if traced {
				root, t0 = r.tr.NewID(), r.tr.Now()
			}
			r.stamp(p, seq)
			for {
				var a0 int64
				if traced {
					a0 = r.tr.Now()
				}
				ok := true
				if timed {
					ok = r.q.OfferTimeout(v, fanoutPatience)
				} else {
					r.q.Put(v)
				}
				if traced {
					r.tr.Add("synchq.put", r.tr.NewID(), root, a0, r.tr.Now())
				}
				if ok {
					break
				}
				p.retries++
			}
			if traced {
				r.tr.Add("deliver", root, 0, t0, r.tr.Now())
			}
			p.next = seq + 1
		}
	},
	consume: func(r *handoffRun, c *consumer) {
		for k := 0; ; k++ {
			traced := r.tr != nil && k&sampleMask == 0
			var t0 int64
			if traced {
				t0 = r.tr.Now()
			}
			v, ok := r.q.PollTimeout(fanoutPatience)
			if traced {
				name := "synchq.take"
				if !ok {
					name = "synchq.poll_expired"
				}
				r.tr.Add(name, r.tr.NewID(), 0, t0, r.tr.Now())
			}
			if !ok {
				if r.ctx.Err() != nil {
					return
				}
				c.misses++
				continue
			}
			c.calls++
			var at int64
			r.receive(c, v, &at)
		}
	},
}

// batchSize is the batch workload's PutAll length and TakeBatch limit.
const batchSize = 32

var batchSpec = &handoffSpec{
	producers: 2, consumers: 2,
	newQueue: func(m *synchq.Metrics) *synchq.SynchronousQueue[int64] {
		return synchq.New[int64](synchq.Segmented(), synchq.Instrument(m))
	},
	produce: func(r *handoffRun, p *producer) {
		buf := make([]int64, batchSize)
		for k := 0; !r.stop.Load(); k++ {
			base := p.next
			for j := range buf {
				seq := base + uint64(j)
				buf[j] = r.in.encode(p.id, seq)
				r.stamp(p, seq)
			}
			// One PutAll in two carries a sampled item: trace those.
			if r.tr != nil && k&1 == 0 {
				t0 := r.tr.Now()
				r.q.PutAll(buf)
				r.tr.Add("synchq.put", r.tr.NewID(), 0, t0, r.tr.Now())
			} else {
				r.q.PutAll(buf)
			}
			p.next = base + batchSize
		}
	},
	consume: func(r *handoffRun, c *consumer) {
		for k := 0; ; k++ {
			traced := r.tr != nil && k&1 == 0
			var t0 int64
			if traced {
				t0 = r.tr.Now()
			}
			items, err := r.q.TakeBatchContext(r.ctx, batchSize)
			if err != nil {
				if r.ctx.Err() == nil {
					c.bad++
				}
				return
			}
			if traced {
				r.tr.Add("synchq.take", r.tr.NewID(), 0, t0, r.tr.Now())
			}
			c.calls++
			var at int64
			for _, v := range items {
				r.receive(c, v, &at)
			}
		}
	},
}
