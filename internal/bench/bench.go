// Package bench is the measurement harness that regenerates the paper's
// evaluation: synchronous hand-off microbenchmarks at producer:consumer
// ratios N:N (Figure 3), 1:N (Figure 4), and N:1 (Figure 5), and the
// cached-thread-pool macrobenchmark (Figure 6), each swept over the
// paper's concurrency levels with one series per algorithm.
package bench

import (
	"sync"
	"time"

	"synchq/internal/baseline"
	"synchq/internal/core"
	"synchq/internal/verify"
	"synchq/pool"
)

// SQ is the minimal surface the hand-off benchmarks drive. Payloads are
// int64 so values can encode producer ID and sequence number for
// verification.
type SQ interface {
	Put(int64)
	Take() int64
}

// Algorithm describes one benchmarked implementation.
type Algorithm struct {
	// Name matches the series label used in the paper's figure legends
	// where applicable.
	Name string
	// New constructs a fresh queue for a measurement.
	New func() SQ
	// NewPoolQueue constructs the queue as a thread-pool hand-off
	// channel, or is nil if the algorithm lacks the timed interface the
	// pool needs (Hanson, Naive — the paper likewise omits them from
	// Figure 6).
	NewPoolQueue func() pool.Queue
	// Extra marks algorithms beyond the paper's five series (the Go
	// channel and the naive monitor queue).
	Extra bool
}

// Algorithms returns the benchmarked implementations in the paper's legend
// order; with extras, the Go-native channel and the naive queue are
// appended.
func Algorithms(extras bool) []Algorithm {
	algos := []Algorithm{
		{
			Name:         "SynchronousQueue",
			New:          func() SQ { return baseline.NewJava5[int64](false) },
			NewPoolQueue: func() pool.Queue { return baseline.NewJava5[pool.Task](false) },
		},
		{
			Name:         "SynchronousQueue (fair)",
			New:          func() SQ { return baseline.NewJava5[int64](true) },
			NewPoolQueue: func() pool.Queue { return baseline.NewJava5[pool.Task](true) },
		},
		{
			Name: "HansonSQ",
			New:  func() SQ { return baseline.NewHanson[int64]() },
		},
		{
			Name:         "New SynchQueue",
			New:          func() SQ { return core.NewDualStack[int64](core.WaitConfig{}) },
			NewPoolQueue: func() pool.Queue { return core.NewDualStack[pool.Task](core.WaitConfig{}) },
		},
		{
			Name:         "New SynchQueue (fair)",
			New:          func() SQ { return core.NewDualQueue[int64](core.WaitConfig{}) },
			NewPoolQueue: func() pool.Queue { return core.NewDualQueue[pool.Task](core.WaitConfig{}) },
		},
	}
	if extras {
		algos = append(algos,
			Algorithm{
				Name:         "GoChannel",
				New:          func() SQ { return chanSQ{baseline.NewChannel[int64]()} },
				NewPoolQueue: func() pool.Queue { return baseline.NewChannel[pool.Task]() },
				Extra:        true,
			},
			Algorithm{
				Name:  "NaiveSQ",
				New:   func() SQ { return baseline.NewNaive[int64]() },
				Extra: true,
			},
			Algorithm{
				Name:  "HansonSQ (fastpath)",
				New:   func() SQ { return baseline.NewHansonFast[int64]() },
				Extra: true,
			},
		)
	}
	return algos
}

// chanSQ adapts the channel baseline (whose Take returns T) to SQ.
type chanSQ struct{ c *baseline.Channel[int64] }

func (s chanSQ) Put(v int64) { s.c.Put(v) }
func (s chanSQ) Take() int64 { return s.c.Take() }

// ByName returns the named algorithm.
func ByName(name string) (Algorithm, bool) {
	for _, a := range Algorithms(true) {
		if a.Name == name {
			return a, true
		}
	}
	return Algorithm{}, false
}

// HandoffResult is one hand-off measurement.
type HandoffResult struct {
	Producers int
	Consumers int
	Transfers int64
	Elapsed   time.Duration
}

// NsPerTransfer returns the figure metric: average wall nanoseconds per
// transferred value.
func (r HandoffResult) NsPerTransfer() float64 {
	if r.Transfers == 0 {
		return 0
	}
	return float64(r.Elapsed.Nanoseconds()) / float64(r.Transfers)
}

// split divides total into n near-equal non-negative quotas.
func split(total int64, n int) []int64 {
	q := make([]int64, n)
	base := total / int64(n)
	rem := total % int64(n)
	for i := range q {
		q[i] = base
		if int64(i) < rem {
			q[i]++
		}
	}
	return q
}

// encode packs a producer ID and sequence number into a unique value.
func encode(producer int, seq int64) int64 { return int64(producer)<<40 | seq }

// batchSQ is the optional batch surface RunHandoff drives when k > 1.
// PutBatch must deliver every item (the harness never closes or cancels);
// TakeBatch appends at least one and at most max items to buf.
type batchSQ interface {
	PutBatch(items []int64)
	TakeBatch(buf []int64, max int) []int64
}

// RunHandoff drives producers and consumers that transfer exactly
// `transfers` values through q as fast as they can — the paper's limiting
// case of producer-consumer applications as per-element processing cost
// approaches zero — and reports the elapsed wall time. With k == 1 every
// party runs single Put/Take operations; with k > 1 producers push k-item
// batches and consumers drain with TakeBatch(max=k), which q must support
// (batchSQ). If rec is non-nil, every operation is recorded for
// verification, a batch as one entry per item spanning the whole call.
//
// This is the package's one hand-off timing loop: every figure, sweep and
// gate that times hand-offs runs through it.
func RunHandoff(q SQ, producers, consumers, k int, transfers int64, rec *verify.Recorder) HandoffResult {
	putQuota := split(transfers, producers)
	takeQuota := split(transfers, consumers)
	var bq batchSQ
	if k > 1 {
		bq = q.(batchSQ)
	} else {
		k = 1
	}

	var wg sync.WaitGroup
	start := make(chan struct{})

	for i := 0; i < producers; i++ {
		wg.Add(1)
		go func(id int, quota int64) {
			defer wg.Done()
			var log *verify.ThreadLog
			if rec != nil {
				log = rec.NewThread()
			}
			buf := make([]int64, k)
			<-start
			for seq := int64(0); seq < quota; {
				n := min(int64(k), quota-seq)
				for j := range buf[:n] {
					buf[j] = encode(id, seq+int64(j))
				}
				var inv time.Duration
				if log != nil {
					inv = log.Begin()
				}
				if bq != nil {
					bq.PutBatch(buf[:n])
				} else {
					q.Put(buf[0])
				}
				if log != nil {
					for _, v := range buf[:n] {
						log.End(verify.Put, v, inv, true)
					}
				}
				seq += n
			}
		}(i, putQuota[i])
	}
	for i := 0; i < consumers; i++ {
		wg.Add(1)
		go func(quota int64) {
			defer wg.Done()
			var log *verify.ThreadLog
			if rec != nil {
				log = rec.NewThread()
			}
			buf := make([]int64, 1, k)
			<-start
			for taken := int64(0); taken < quota; taken += int64(len(buf)) {
				var inv time.Duration
				if log != nil {
					inv = log.Begin()
				}
				if bq != nil {
					buf = bq.TakeBatch(buf[:0], int(min(int64(k), quota-taken)))
				} else {
					buf[0] = q.Take()
				}
				if log != nil {
					for _, v := range buf {
						log.End(verify.Take, v, inv, true)
					}
				}
			}
		}(takeQuota[i])
	}

	t0 := time.Now()
	close(start)
	wg.Wait()
	return HandoffResult{
		Producers: producers,
		Consumers: consumers,
		Transfers: transfers,
		Elapsed:   time.Since(t0),
	}
}

// handoffNs is one timed cell for bestOf: a fresh queue from newQ per run,
// ns per transferred item.
func handoffNs(newQ func() SQ, producers, consumers, k int, transfers int64) func() float64 {
	return func() float64 {
		return RunHandoff(newQ(), producers, consumers, k, transfers, nil).NsPerTransfer()
	}
}

// bestOf runs every cell once per repeat, interleaved repeat by repeat so
// slow host drift decorrelates from any comparison between cells, and
// returns each cell's minimum: the least-noise estimator for a fixed
// amount of work. It is the package's one best-of-repeats helper.
func bestOf(repeats int, cells ...func() float64) []float64 {
	best := make([]float64, len(cells))
	for r := 0; r < repeats; r++ {
		for i, cell := range cells {
			if v := cell(); r == 0 || v < best[i] {
				best[i] = v
			}
		}
	}
	return best
}
