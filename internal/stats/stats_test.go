package stats

import (
	"math"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestSummarizeBasic(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4, 5})
	if s.N != 5 || s.Mean != 3 || s.Min != 1 || s.Max != 5 || s.P50 != 3 {
		t.Fatalf("unexpected summary: %+v", s)
	}
	if math.Abs(s.Stddev-math.Sqrt(2)) > 1e-9 {
		t.Fatalf("Stddev = %v, want sqrt(2)", s.Stddev)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	if s := Summarize(nil); s.N != 0 {
		t.Fatalf("empty summary: %+v", s)
	}
}

func TestSummarizeDoesNotMutateInput(t *testing.T) {
	in := []float64{3, 1, 2}
	Summarize(in)
	if in[0] != 3 || in[1] != 1 || in[2] != 2 {
		t.Fatalf("input mutated: %v", in)
	}
}

func TestQuantileEndpointsAndMidpoint(t *testing.T) {
	s := []float64{10, 20, 30, 40}
	if Quantile(s, 0) != 10 || Quantile(s, 1) != 40 {
		t.Fatal("quantile endpoints wrong")
	}
	if got := Quantile(s, 0.5); got != 25 {
		t.Fatalf("median = %v, want 25 (interpolated)", got)
	}
}

func TestQuantileProperties(t *testing.T) {
	// Quantiles are monotone in q and bounded by min/max.
	f := func(raw []float64, q1, q2 float64) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				xs = append(xs, x)
			}
		}
		if len(xs) == 0 {
			return true
		}
		sort.Float64s(xs)
		qa := math.Abs(math.Mod(q1, 1))
		qb := math.Abs(math.Mod(q2, 1))
		if qa > qb {
			qa, qb = qb, qa
		}
		va, vb := Quantile(xs, qa), Quantile(xs, qb)
		return va <= vb && va >= xs[0] && vb <= xs[len(xs)-1]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestQuantilePanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Quantile of empty sample did not panic")
		}
	}()
	Quantile(nil, 0.5)
}

func TestTableRenderAndCSV(t *testing.T) {
	tb := NewTable("T", "x", "ns", []string{"a", "b"})
	tb.Set("1", "a", 100)
	tb.Set("1", "b", 200.5)
	tb.Set("2", "a", 300)
	text := tb.Render()
	if !strings.Contains(text, "T (ns)") || !strings.Contains(text, "100") {
		t.Fatalf("Render missing content:\n%s", text)
	}
	// Missing cell renders as "-".
	if !strings.Contains(text, "-") {
		t.Fatalf("missing cell not marked:\n%s", text)
	}
	csv := tb.CSV()
	lines := strings.Split(strings.TrimSpace(csv), "\n")
	if len(lines) != 3 {
		t.Fatalf("CSV has %d lines, want 3:\n%s", len(lines), csv)
	}
	if lines[0] != "x,a,b" {
		t.Fatalf("CSV header = %q", lines[0])
	}
	if lines[1] != "1,100,200.5" {
		t.Fatalf("CSV row = %q", lines[1])
	}
	if lines[2] != "2,300," {
		t.Fatalf("CSV row with missing cell = %q", lines[2])
	}
}

func TestTableCSVEscaping(t *testing.T) {
	tb := NewTable("", "x", "ns", []string{`col,with"comma`})
	tb.Set("r1", `col,with"comma`, 1)
	csv := tb.CSV()
	if !strings.Contains(csv, `"col,with""comma"`) {
		t.Fatalf("CSV not escaped: %q", csv)
	}
}

func TestTableUnknownColumnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Set with unknown column did not panic")
		}
	}()
	tb := NewTable("", "x", "ns", []string{"a"})
	tb.Set("1", "nope", 1)
}

func TestSummaryString(t *testing.T) {
	s := Summarize([]float64{1, 2, 3})
	str := s.String()
	if !strings.Contains(str, "n=3") || !strings.Contains(str, "mean=2.0") {
		t.Fatalf("String = %q", str)
	}
}
