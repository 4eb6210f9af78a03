package perf

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Span is one timed call into a layer. Start and End are nanoseconds
// since the tracer's epoch; Parent is the ID of the span whose call made
// this one, or 0 for a root.
type Span struct {
	Name   string `json:"name"`
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// Dur is the span's duration in nanoseconds.
func (s Span) Dur() int64 { return s.End - s.Start }

// Tracer keeps spans in memory until the run ends. Callers sample which
// operations they time, so the lock Add takes is rarely contended.
type Tracer struct {
	epoch time.Time
	ids   atomic.Uint64

	mu    sync.Mutex
	spans []Span
}

// NewTracer returns a tracer whose clock starts now.
func NewTracer() *Tracer { return &Tracer{epoch: time.Now()} }

// Now reads the tracer's monotonic clock in nanoseconds.
func (t *Tracer) Now() int64 { return int64(time.Since(t.epoch)) }

// NewID returns a fresh span ID (never 0).
func (t *Tracer) NewID() uint64 { return t.ids.Add(1) }

// Add records a span that has already ended. It is safe for concurrent
// use.
func (t *Tracer) Add(name string, id, parent uint64, start, end int64) {
	t.mu.Lock()
	t.spans = append(t.spans, Span{Name: name, ID: id, Parent: parent, Start: start, End: end})
	t.mu.Unlock()
}

// Spans returns a copy of every recorded span, ordered by start time.
func (t *Tracer) Spans() []Span {
	t.mu.Lock()
	out := append([]Span(nil), t.spans...)
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// WriteSpans writes spans as JSON lines, one span per line.
func WriteSpans(w io.Writer, spans []Span) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadSpans parses a span file written by WriteSpans.
func ReadSpans(r io.Reader) ([]Span, error) {
	var out []Span
	dec := json.NewDecoder(r)
	for {
		var s Span
		err := dec.Decode(&s)
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, fmt.Errorf("span %d: %w", len(out)+1, err)
		}
		out = append(out, s)
	}
}

// CheckNesting verifies that spans form proper trees: IDs are unique and
// nonzero, no span ends before it starts, and every child names an
// existing parent whose interval contains its own.
func CheckNesting(spans []Span) error {
	byID := make(map[uint64]Span, len(spans))
	for _, s := range spans {
		if s.ID == 0 {
			return fmt.Errorf("span %q has id 0", s.Name)
		}
		if _, dup := byID[s.ID]; dup {
			return fmt.Errorf("span id %d used twice", s.ID)
		}
		if s.End < s.Start {
			return fmt.Errorf("span %q (id %d) ends before it starts", s.Name, s.ID)
		}
		byID[s.ID] = s
	}
	for _, s := range spans {
		if s.Parent == 0 {
			continue
		}
		p, ok := byID[s.Parent]
		if !ok {
			return fmt.Errorf("span %q (id %d) names missing parent %d", s.Name, s.ID, s.Parent)
		}
		if s.Start < p.Start || s.End > p.End {
			return fmt.Errorf("span %q (id %d) [%d,%d] escapes parent %q [%d,%d]",
				s.Name, s.ID, s.Start, s.End, p.Name, p.Start, p.End)
		}
	}
	return nil
}

// SelfTimes returns, per span ID, the span's duration minus the part of
// its interval its child spans cover (overlapping children count once).
func SelfTimes(spans []Span) map[uint64]int64 {
	children := make(map[uint64][]Span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[uint64]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		var covered int64
		cur, end := s.Start, s.Start // the merged run of children seen so far
		for _, k := range kids {
			ks, ke := max(k.Start, s.Start), min(k.End, s.End)
			if ke <= ks {
				continue
			}
			if ks > end {
				covered += end - cur
				cur, end = ks, ke
			} else if ke > end {
				end = ke
			}
		}
		covered += end - cur
		self[s.ID] = s.Dur() - covered
	}
	return self
}

// ByName groups span durations (or, with self set, self times) by span
// name, in nanoseconds.
func ByName(spans []Span, self bool) map[string][]float64 {
	var st map[uint64]int64
	if self {
		st = SelfTimes(spans)
	}
	out := make(map[string][]float64)
	for _, s := range spans {
		v := s.Dur()
		if self {
			v = st[s.ID]
		}
		out[s.Name] = append(out[s.Name], float64(v))
	}
	return out
}
