package main

// Artifacts mode (`sqbench -artifacts`, `make bench-all`): regenerate
// every committed BENCH_*.json in one pass, each with the settings
// recorded in its committed header, and print a per-figure delta of the
// headline numbers against the baseline being replaced — so a
// regeneration is reviewable as "what moved and by how much", not just a
// wall of changed JSON.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"

	"synchq/internal/bench"
)

// artifactJob regenerates one committed BENCH_<figure>.json with the
// settings recorded in its committed header — deliberately longer than the
// quick `make check` gates — and names the headline metrics its delta
// report tracks, as paths into the JSON document.
type artifactJob struct {
	figure    string
	opts      bench.SweepOpts
	headlines []headline
}

// headline is one tracked metric: a label and a path through the JSON
// object tree. A path element selects a map key; the special element "[]"
// fans out over every element of an array, using each element's keyField
// value as the label suffix.
type headline struct {
	label    string
	path     []string
	keyField string
}

func artifactJobs() []artifactJob {
	return []artifactJob{
		{
			figure: "scaling",
			// Five repeats (best-of) because the committed sweep runs on
			// a single-CPU CI host where 8-pair cells are scheduler-noisy.
			opts: bench.SweepOpts{Transfers: 10000, Repeats: 5},
			headlines: []headline{
				{label: "queue ns/transfer", path: []string{"summary", "baseline_ns_per_transfer"}},
				{label: "queue+shard+elim ns/transfer", path: []string{"summary", "sharded_ns_per_transfer"}},
				{label: "seg ns/transfer", path: []string{"summary", "seg_ns_per_transfer"}},
				{label: "auto ns/transfer", path: []string{"summary", "auto_ns_per_transfer"}},
				{label: "shard speedup", path: []string{"summary", "speedup"}},
				{label: "seg speedup", path: []string{"summary", "seg_speedup"}},
				{label: "auto speedup", path: []string{"summary", "auto_speedup"}},
				{label: "auto 1-pair collapse tax", path: []string{"summary", "auto_collapse_tax"}},
			},
		},
		{
			figure: "batch",
			// Best-of-five, like scaling: the batched cells at high pair
			// counts are park/unpark-bound and scheduler-noisy on shared
			// CI hosts.
			opts: bench.SweepOpts{Transfers: 20000, Repeats: 5},
			headlines: []headline{
				{label: "seg single ns/item", path: []string{"summary", "seg_single_ns_per_item"}},
				{label: "seg batch ns/item", path: []string{"summary", "seg_batch_ns_per_item"}},
				{label: "seg gain", path: []string{"summary", "seg_gain"}},
				{label: "transfer single ns/item", path: []string{"summary", "transfer_single_ns_per_item"}},
				{label: "transfer batch ns/item", path: []string{"summary", "transfer_batch_ns_per_item"}},
				{label: "transfer gain", path: []string{"summary", "transfer_gain"}},
			},
		},
		{
			figure: "latency",
			opts:   bench.SweepOpts{Transfers: 20000, Repeats: 7},
			headlines: []headline{
				{label: "max metrics-on overhead", path: []string{"summary", "max_overhead"}},
			},
		},
		{
			figure: "executor",
			opts:   bench.SweepOpts{Transfers: 20000},
			headlines: []headline{
				{label: "queue-wait p99 ns", path: []string{"runs", "[]", "queue_wait_p99_ns"}, keyField: "series"},
			},
		},
	}
}

// runArtifacts regenerates every artifact into dir, printing deltas;
// it returns a process exit code.
func runArtifacts(dir string, quiet bool) int {
	failed := false
	for _, job := range artifactJobs() {
		file := "BENCH_" + job.figure + ".json"
		path := filepath.Join(dir, file)
		if !quiet {
			fmt.Fprintf(os.Stderr, "sqbench: regenerating %s\n", path)
			job.opts.Progress = func(_ int, algo string, level int) {
				fmt.Fprintf(os.Stderr, "  %-28s level %d\n", algo, level)
			}
		}
		var out bytes.Buffer
		if err := runReport(&out, job.figure, job.opts, true, false, false); err != nil {
			fmt.Fprintf(os.Stderr, "sqbench: %s: %v\n", file, err)
			failed = true
			continue
		}
		old, readErr := os.ReadFile(path)
		fmt.Printf("%s:\n", file)
		if readErr != nil {
			fmt.Printf("  (no committed baseline to diff against)\n")
		} else {
			printDeltas(old, out.Bytes(), job.headlines)
		}
		if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "sqbench: %s: %v\n", file, err)
			failed = true
		}
	}
	if failed {
		return 1
	}
	return 0
}

// printDeltas renders old → new for every headline metric found in both
// documents.
func printDeltas(oldJSON, newJSON []byte, hs []headline) {
	var oldDoc, newDoc any
	if json.Unmarshal(oldJSON, &oldDoc) != nil || json.Unmarshal(newJSON, &newDoc) != nil {
		fmt.Printf("  (baseline unparsable; skipping delta)\n")
		return
	}
	for _, h := range hs {
		for _, m := range extract(oldDoc, h, h.label) {
			nv, ok := lookupLabeled(newDoc, h, m.label)
			if !ok {
				continue
			}
			fmt.Printf("  %-32s %s -> %s%s\n", m.label, trimNum(m.value), trimNum(nv), pct(m.value, nv))
		}
	}
}

type metric struct {
	label string
	value float64
}

// extract walks one headline path through doc, fanning out at "[]".
func extract(doc any, h headline, label string) []metric {
	cur := doc
	for i, elem := range h.path {
		if elem == "[]" {
			arr, ok := cur.([]any)
			if !ok {
				return nil
			}
			var out []metric
			for _, item := range arr {
				obj, ok := item.(map[string]any)
				if !ok {
					continue
				}
				name, _ := obj[h.keyField].(string)
				sub := headline{path: h.path[i+1:], keyField: h.keyField}
				out = append(out, extract(item, sub, label+" "+name)...)
			}
			return out
		}
		obj, ok := cur.(map[string]any)
		if !ok {
			return nil
		}
		cur, ok = obj[elem]
		if !ok {
			return nil
		}
	}
	v, ok := cur.(float64)
	if !ok {
		return nil
	}
	return []metric{{label: label, value: v}}
}

// lookupLabeled finds the metric with the same fan-out label in the new
// document.
func lookupLabeled(doc any, h headline, label string) (float64, bool) {
	for _, m := range extract(doc, h, h.label) {
		if m.label == label {
			return m.value, true
		}
	}
	return 0, false
}

func trimNum(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%.0f", v)
	}
	return fmt.Sprintf("%.4g", v)
}

// pct renders the relative change, or nothing when the baseline is zero.
func pct(old, new float64) string {
	if old == 0 {
		return ""
	}
	return fmt.Sprintf(" (%+.1f%%)", (new-old)/old*100)
}
