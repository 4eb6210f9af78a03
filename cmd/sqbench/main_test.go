package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"synchq/internal/bench"
)

// jsonKeys collects every key path of a decoded JSON document: ".a.b" for
// nested objects, "[]" for array elements.
func jsonKeys(doc any, prefix string, into map[string]bool) {
	switch v := doc.(type) {
	case map[string]any:
		for k, child := range v {
			into[prefix+"."+k] = true
			jsonKeys(child, prefix+"."+k, into)
		}
	case []any:
		for _, child := range v {
			jsonKeys(child, prefix+"[]", into)
		}
	}
}

func keysOf(t *testing.T, raw []byte) map[string]bool {
	t.Helper()
	var doc any
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("unparsable JSON: %v\n%s", err, raw)
	}
	keys := make(map[string]bool)
	jsonKeys(doc, "", keys)
	return keys
}

// TestReportSchemasMatchCommittedArtifacts runs every report figure at a
// tiny size through the same path `sqbench -json` and `sqbench -artifacts`
// use, and checks that the emitted JSON has exactly the key set of the
// committed BENCH_<figure>.json — so a renamed, dropped or added field
// fails here instead of silently breaking the artifact diff.
func TestReportSchemasMatchCommittedArtifacts(t *testing.T) {
	cases := []struct {
		figure string
		opts   bench.SweepOpts
		// optional are key prefixes whose presence depends on the run
		// (omitempty fields that a short run may or may not populate);
		// they are left out of the comparison.
		optional []string
	}{
		{
			figure:   "scaling",
			opts:     bench.SweepOpts{Transfers: 200, Levels: []int{1, 2}, Repeats: 1},
			optional: []string{".summary.auto_1pair_collapsed"},
		},
		{
			figure: "batch",
			opts:   bench.SweepOpts{Transfers: 200, Levels: []int{1, 2}, Repeats: 1},
		},
		{
			figure:   "latency",
			opts:     bench.SweepOpts{Transfers: 4000, Repeats: 1},
			optional: []string{".cells[].spin", ".cells[].park", ".cells[].wasted"},
		},
		{
			figure: "executor",
			opts:   bench.SweepOpts{Transfers: 200},
		},
	}
	if len(cases) != len(reports) {
		t.Fatalf("test covers %d report figures, sqbench has %d", len(cases), len(reports))
	}
	for _, c := range cases {
		t.Run(c.figure, func(t *testing.T) {
			var out bytes.Buffer
			if err := runReport(&out, c.figure, c.opts, true, false, false); err != nil {
				t.Fatal(err)
			}
			committed, err := os.ReadFile(filepath.Join("..", "..", "BENCH_"+c.figure+".json"))
			if err != nil {
				t.Fatal(err)
			}
			got, want := keysOf(t, out.Bytes()), keysOf(t, committed)
			skip := func(k string) bool {
				for _, p := range c.optional {
					if k == p || strings.HasPrefix(k, p+".") {
						return true
					}
				}
				return false
			}
			var missing, extra []string
			for k := range want {
				if !got[k] && !skip(k) {
					missing = append(missing, k)
				}
			}
			for k := range got {
				if !want[k] && !skip(k) {
					extra = append(extra, k)
				}
			}
			sort.Strings(missing)
			sort.Strings(extra)
			if len(missing) > 0 || len(extra) > 0 {
				t.Fatalf("BENCH_%s.json schema drift: missing %v, unexpected %v", c.figure, missing, extra)
			}
		})
	}
}
