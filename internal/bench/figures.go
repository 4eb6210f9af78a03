package bench

import (
	"fmt"
	"strings"

	"synchq/internal/stats"
)

// The paper's sweep levels. PairLevels is the x-axis of Figures 3 and 6
// (pairs / threads); SingleLevels is the x-axis of Figures 4 and 5
// (consumers / producers opposite a singleton).
var (
	PairLevels   = []int{1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64}
	SingleLevels = []int{1, 2, 3, 5, 8, 12, 18, 27, 41, 62}
)

// SweepOpts parameterizes a figure regeneration.
type SweepOpts struct {
	// Transfers per measurement cell; zero selects a default that keeps
	// the slowest baselines tractable.
	Transfers int64
	// Levels overrides the figure's default x-axis.
	Levels []int
	// Repeats per cell; the minimum is reported (least-noise estimator
	// for a fixed amount of work). Zero selects 3.
	Repeats int
	// Extras adds the Go channel and naive queue series.
	Extras bool
	// Cores, when non-empty, restricts the scaling or batch sweep to the
	// named series (by exact series name, e.g. "queue", "seg",
	// "queue+shard+elim") so CI can gate a reduced sweep quickly. Other
	// figures ignore it.
	Cores []string
	// Progress, if non-nil, is called before each cell is measured.
	Progress func(figure int, algo string, level int)
}

func (o SweepOpts) withDefaults(defaultLevels []int, defaultTransfers int64) SweepOpts {
	if o.Transfers == 0 {
		o.Transfers = defaultTransfers
	}
	if len(o.Levels) == 0 {
		o.Levels = defaultLevels
	}
	if o.Repeats == 0 {
		o.Repeats = 3
	}
	return o
}

// columnNames lists the series labels for a sweep.
func columnNames(algos []Algorithm) []string {
	names := make([]string, len(algos))
	for i, a := range algos {
		names[i] = a.Name
	}
	return names
}

// handoffFigure sweeps the paper's algorithms over o.Levels, shaping each
// level into a producer:consumer count.
func handoffFigure(fig int, title, xlabel string, defaults []int, shape func(level int) (producers, consumers int), o SweepOpts) *stats.Table {
	o = o.withDefaults(defaults, 20000)
	algos := Algorithms(o.Extras)
	t := stats.NewTable(title, xlabel, "ns/transfer", columnNames(algos))
	for _, level := range o.Levels {
		producers, consumers := shape(level)
		for _, a := range algos {
			if o.Progress != nil {
				o.Progress(fig, a.Name, level)
			}
			t.Set(fmt.Sprint(level), a.Name,
				bestOf(o.Repeats, handoffNs(a.New, producers, consumers, 1, o.Transfers))[0])
		}
	}
	return t
}

// Figure3 regenerates "Synchronous handoff: N producers, N consumers":
// ns/transfer as the number of producer/consumer pairs sweeps the paper's
// levels.
func Figure3(o SweepOpts) *stats.Table {
	return handoffFigure(3, "Figure 3: synchronous handoff, N producers : N consumers", "pairs",
		PairLevels, func(l int) (int, int) { return l, l }, o)
}

// Figure4 regenerates "Synchronous handoff: 1 producer, N consumers".
func Figure4(o SweepOpts) *stats.Table {
	return handoffFigure(4, "Figure 4: synchronous handoff, 1 producer : N consumers", "consumers",
		SingleLevels, func(l int) (int, int) { return 1, l }, o)
}

// Figure5 regenerates "Synchronous handoff: N producers, 1 consumer".
func Figure5(o SweepOpts) *stats.Table {
	return handoffFigure(5, "Figure 5: synchronous handoff, N producers : 1 consumer", "producers",
		SingleLevels, func(l int) (int, int) { return l, 1 }, o)
}

// selectSeries restricts a sweep's series to the named subset (exact
// names), preserving sweep order; no names keeps them all. An unknown name
// is reported rather than silently dropped so a typo in a CI -cores flag
// cannot quietly gate nothing.
func selectSeries[S any](figure string, all []S, name func(S) string, names []string) ([]S, error) {
	if len(names) == 0 {
		return all, nil
	}
	want := make(map[string]bool, len(names))
	for _, n := range names {
		want[n] = true
	}
	var kept []S
	have := make([]string, len(all))
	for i, s := range all {
		have[i] = name(s)
		if want[have[i]] {
			kept = append(kept, s)
			delete(want, have[i])
		}
	}
	for n := range want {
		return nil, fmt.Errorf("unknown %s series %q (have: %s)", figure, n, strings.Join(have, ","))
	}
	return kept, nil
}

// ValidateCores checks a -cores selection against the series of the named
// sweep ("scaling" or "batch"), so CLI entry points can reject a typo with
// a friendly message instead of the panic the sweeps reserve for
// programmer error.
func ValidateCores(figure string, names []string) error {
	var err error
	switch figure {
	case "scaling":
		_, err = selectSeries(figure, scalingSeries(), func(c composition) string { return c.name }, names)
	case "batch":
		_, err = selectSeries(figure, batchCores(), func(c batchCore) string { return c.name }, names)
	default:
		err = fmt.Errorf("-cores applies to the scaling and batch sweeps, not %q", figure)
	}
	return err
}
