package perf

import (
	"bytes"
	"math"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	s := Sorted([]float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6})
	for _, c := range []struct {
		q    float64
		want float64
	}{{0.001, 1}, {0.1, 1}, {0.5, 5}, {0.9, 9}, {0.91, 10}, {0.99, 10}, {1, 10}} {
		if got := Percentile(s, c.q); got != c.want {
			t.Errorf("Percentile(q=%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if !math.IsNaN(Percentile(nil, 0.5)) {
		t.Error("empty Percentile is not NaN")
	}
	if got := Beyond(s, Percentile(s, 0.9)); got != 1 {
		t.Errorf("Beyond(p90) = %d, want 1", got)
	}
	if got := Beyond(s, 0); got != 10 {
		t.Errorf("Beyond(0) = %d, want 10", got)
	}
}

func TestMedian(t *testing.T) {
	if got := Median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v", got)
	}
	if got := Median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v", got)
	}
}

// The expected values are what Python's statistics.quantiles(xs, n=4)
// returns for the same inputs.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs        []float64
		q1, m, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{1, 2, 3, 4, 5}, 1.5, 3, 4.5},
		{[]float64{10, 20}, 7.5, 15, 22.5},
		{[]float64{7, 1, 3}, 1, 3, 7},
	} {
		q1, m, q3 := Quartiles(c.xs)
		if q1 != c.q1 || m != c.m || q3 != c.q3 {
			t.Errorf("Quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, m, q3, c.q1, c.m, c.q3)
		}
	}
}

func TestSelfTimesAndNesting(t *testing.T) {
	spans := []Span{
		{Name: "root", ID: 1, Start: 0, End: 100},
		{Name: "a", ID: 2, Parent: 1, Start: 10, End: 40},
		{Name: "b", ID: 3, Parent: 1, Start: 30, End: 50}, // overlaps a
		{Name: "c", ID: 4, Parent: 1, Start: 70, End: 80},
		{Name: "leaf", ID: 5, Parent: 2, Start: 20, End: 25},
	}
	if err := CheckNesting(spans); err != nil {
		t.Fatal(err)
	}
	st := SelfTimes(spans)
	if st[1] != 100-40-10 {
		t.Errorf("root self = %d, want 50", st[1])
	}
	if st[2] != 25 || st[3] != 20 || st[5] != 5 {
		t.Errorf("self times %v", st)
	}

	bad := append([]Span(nil), spans...)
	bad[4].End = 45 // leaf escapes a
	if CheckNesting(bad) == nil {
		t.Error("escaping child accepted")
	}
	bad = append([]Span(nil), spans...)
	bad[2].Parent = 9
	if CheckNesting(bad) == nil {
		t.Error("missing parent accepted")
	}
}

func TestSpanFileRoundTrip(t *testing.T) {
	tr := NewTracer()
	root := tr.NewID()
	s0 := tr.Now()
	tr.Add("child", tr.NewID(), root, s0+1, s0+2)
	tr.Add("root", root, 0, s0, s0+3)

	var buf bytes.Buffer
	if err := WriteSpans(&buf, tr.Spans()); err != nil {
		t.Fatal(err)
	}
	got, err := ReadSpans(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].Name != "root" || got[1].Parent != root {
		t.Fatalf("round trip = %+v", got)
	}
	if err := CheckNesting(got); err != nil {
		t.Fatal(err)
	}
	if d := ByName(got, true)["root"]; len(d) != 1 || d[0] != 2 {
		t.Errorf("root self by name = %v", d)
	}
}
