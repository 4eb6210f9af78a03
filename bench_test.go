// Benchmarks regenerating the paper's figures under `go test -bench`.
//
// Each BenchmarkFigureN mirrors one figure of the paper's evaluation; the
// sub-benchmark grid is algorithm × concurrency level, and ns/op is the
// figure's metric (ns per transfer for Figures 3–5, ns per task for
// Figure 6). The testing.B sweeps use a subset of the paper's levels to
// keep `go test -bench=.` tractable; the full sweeps are produced by
// cmd/sqbench.
//
// The Ablation benchmarks quantify the design decisions DESIGN.md calls
// out: the spin-then-park waiting policy (Ablation A), the cost of
// cancellation with lazy cleaning (Ablation B), and the elimination
// front-end (Ablation C).
//
// Note on parallelism: on hosts with few CPUs, run with GOMAXPROCS raised
// (e.g. GOMAXPROCS=8 go test -bench=.) to reproduce the paper's contention
// regime; see EXPERIMENTS.md.
package synchq_test

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"synchq"
	"synchq/internal/bench"
	"synchq/internal/core"
)

// benchLevels is the testing.B subset of the paper's sweep.
var benchLevels = []int{1, 4, 16, 64}

func sanitize(name string) string {
	name = strings.ReplaceAll(name, " ", "")
	name = strings.ReplaceAll(name, "(", "_")
	return strings.ReplaceAll(name, ")", "")
}

// BenchmarkFigure3 is the N-producer : N-consumer synchronous hand-off
// (paper Figure 3); ns/op is ns/transfer.
func BenchmarkFigure3(b *testing.B) {
	for _, a := range bench.Algorithms(false) {
		for _, pairs := range benchLevels {
			b.Run(fmt.Sprintf("%s/pairs=%d", sanitize(a.Name), pairs), func(b *testing.B) {
				bench.RunHandoff(a.New(), pairs, pairs, 1, int64(b.N), nil)
			})
		}
	}
}

// BenchmarkFigure4 is the 1-producer : N-consumer hand-off (paper Figure 4).
func BenchmarkFigure4(b *testing.B) {
	for _, a := range bench.Algorithms(false) {
		for _, consumers := range benchLevels {
			b.Run(fmt.Sprintf("%s/consumers=%d", sanitize(a.Name), consumers), func(b *testing.B) {
				bench.RunHandoff(a.New(), 1, consumers, 1, int64(b.N), nil)
			})
		}
	}
}

// BenchmarkFigure5 is the N-producer : 1-consumer hand-off (paper Figure 5).
func BenchmarkFigure5(b *testing.B) {
	for _, a := range bench.Algorithms(false) {
		for _, producers := range benchLevels {
			b.Run(fmt.Sprintf("%s/producers=%d", sanitize(a.Name), producers), func(b *testing.B) {
				bench.RunHandoff(a.New(), producers, 1, 1, int64(b.N), nil)
			})
		}
	}
}

// BenchmarkFigure6 is the cached-thread-pool macrobenchmark (paper
// Figure 6); ns/op is ns/task. Hanson is omitted, as in the paper.
func BenchmarkFigure6(b *testing.B) {
	for _, a := range bench.Algorithms(false) {
		if a.NewPoolQueue == nil {
			continue
		}
		for _, threads := range benchLevels {
			b.Run(fmt.Sprintf("%s/threads=%d", sanitize(a.Name), threads), func(b *testing.B) {
				bench.RunPool(a.NewPoolQueue(), threads, int64(b.N))
			})
		}
	}
}

// BenchmarkAblationSpin compares the paper's spin-then-park waiting policy
// against park-only and heavy-spin variants on both new algorithms
// (DESIGN.md Ablation A). On a uniprocessor the platform default already
// collapses to park-only; the forced-spin variant then shows the cost the
// paper's platform check avoids.
func BenchmarkAblationSpin(b *testing.B) {
	policies := []struct {
		name string
		cfg  core.WaitConfig
	}{
		{"default", core.WaitConfig{}},
		{"park-only", core.WaitConfig{Spins: -1}},
		{"spin-heavy", core.WaitConfig{Spins: 4096}},
	}
	for _, pol := range policies {
		cfg := pol.cfg
		b.Run("stack/"+pol.name, func(b *testing.B) {
			bench.RunHandoff(core.NewDualStack[int64](cfg), 4, 4, 1, int64(b.N), nil)
		})
		b.Run("queue/"+pol.name, func(b *testing.B) {
			bench.RunHandoff(core.NewDualQueue[int64](cfg), 4, 4, 1, int64(b.N), nil)
		})
	}
}

// BenchmarkAblationClean measures the timeout/cancellation path: offers
// with tiny patience against a deliberately absent consumer, so every
// operation enqueues, times out, cancels, and must be cleaned (DESIGN.md
// Ablation B). ns/op is the full cancel-and-clean round trip.
func BenchmarkAblationClean(b *testing.B) {
	b.Run("queue", func(b *testing.B) {
		q := core.NewDualQueue[int64](core.WaitConfig{})
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			q.PutDeadline(int64(i), core.DeadlineFor(time.Microsecond), nil)
		}
	})
	b.Run("stack", func(b *testing.B) {
		q := core.NewDualStack[int64](core.WaitConfig{})
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			q.PutDeadline(int64(i), core.DeadlineFor(time.Microsecond), nil)
		}
	})
}

// BenchmarkAblationElimination compares the plain dual stack against the
// same stack behind the EliminatingAdaptive front-end at increasing
// contention (DESIGN.md Ablation C measures the static arena the same way).
// The paper predicts elimination pays only under extreme contention.
func BenchmarkAblationElimination(b *testing.B) {
	for _, pairs := range []int{4, 16, 64} {
		b.Run(fmt.Sprintf("plain/pairs=%d", pairs), func(b *testing.B) {
			bench.RunHandoff(core.NewDualStack[int64](core.WaitConfig{}), pairs, pairs, 1, int64(b.N), nil)
		})
		b.Run(fmt.Sprintf("eliminating/pairs=%d", pairs), func(b *testing.B) {
			q := synchq.New[int64](synchq.EliminatingAdaptive())
			bench.RunHandoff(q, pairs, pairs, 1, int64(b.N), nil)
		})
	}
}

// BenchmarkUncontendedRoundTrip is the two-goroutine ping-pong floor: the
// minimum achievable hand-off latency of each algorithm with no
// contention at all.
func BenchmarkUncontendedRoundTrip(b *testing.B) {
	for _, a := range bench.Algorithms(true) {
		b.Run(sanitize(a.Name), func(b *testing.B) {
			bench.RunHandoff(a.New(), 1, 1, 1, int64(b.N), nil)
		})
	}
}
