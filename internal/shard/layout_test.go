package shard

import (
	"testing"
	"unsafe"
)

const cacheLine = 64

// TestPresenceSummaryLayout pins the fabric's false-sharing contract: the
// prod and cons presence words are RMWed by opposite parties (producers
// announce on prod, consumers on cons) and both are re-set/cleared during
// steal sweeps, so they must not share a cache line with each other or
// with the read-only lanes header.
func TestPresenceSummaryLayout(t *testing.T) {
	var f Fabric[int64]
	prod, cons := unsafe.Offsetof(f.prod), unsafe.Offsetof(f.cons)
	if prod/cacheLine == cons/cacheLine {
		t.Errorf("prod (%d) and cons (%d) share a cache line: producer announcements would invalidate consumer announcements", prod, cons)
	}
	if hdr := unsafe.Offsetof(f.lanes); hdr/cacheLine == prod/cacheLine {
		t.Errorf("lanes header (%d) shares a line with prod (%d): summary RMWs would thrash the per-op shard lookup", hdr, prod)
	}
}
