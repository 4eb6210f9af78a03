package bench

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"synchq"
	"synchq/internal/verify"
)

func TestSplit(t *testing.T) {
	cases := []struct {
		total int64
		n     int
		want  []int64
	}{
		{10, 3, []int64{4, 3, 3}},
		{9, 3, []int64{3, 3, 3}},
		{1, 4, []int64{1, 0, 0, 0}},
		{0, 2, []int64{0, 0}},
	}
	for _, c := range cases {
		got := split(c.total, c.n)
		var sum int64
		for i, v := range got {
			sum += v
			if v != c.want[i] {
				t.Fatalf("split(%d,%d) = %v, want %v", c.total, c.n, got, c.want)
			}
		}
		if sum != c.total {
			t.Fatalf("split(%d,%d) sums to %d", c.total, c.n, sum)
		}
	}
}

func TestEncodeIsUnique(t *testing.T) {
	seen := make(map[int64]bool)
	for p := 0; p < 64; p++ {
		for s := int64(0); s < 100; s++ {
			v := encode(p, s)
			if seen[v] {
				t.Fatalf("encode(%d,%d) collides", p, s)
			}
			seen[v] = true
		}
	}
}

func TestAlgorithmsRegistry(t *testing.T) {
	base := Algorithms(false)
	if len(base) != 5 {
		t.Fatalf("paper algorithm count = %d, want 5", len(base))
	}
	wantOrder := []string{
		"SynchronousQueue",
		"SynchronousQueue (fair)",
		"HansonSQ",
		"New SynchQueue",
		"New SynchQueue (fair)",
	}
	for i, a := range base {
		if a.Name != wantOrder[i] {
			t.Fatalf("algorithm %d = %q, want %q", i, a.Name, wantOrder[i])
		}
	}
	all := Algorithms(true)
	if len(all) != 8 {
		t.Fatalf("extended algorithm count = %d, want 8", len(all))
	}
	if _, ok := ByName("HansonSQ"); !ok {
		t.Fatal("ByName failed for HansonSQ")
	}
	if _, ok := ByName("nonsense"); ok {
		t.Fatal("ByName accepted an unknown name")
	}
}

func TestEveryAlgorithmPassesVerification(t *testing.T) {
	// Each input transfers 600 values through 3:2 ratio threads with full
	// history recording; the verifier checks conservation and synchrony
	// for every transfer. The inputs are every queue the timing kernel
	// drives: the paper's algorithms, the twelve scaling compositions, and
	// the batch cores on both the single-op (k=1) and batched (k=8) paths.
	type input struct {
		name string
		newQ func() SQ
		k    int
		// buffered marks asynchronous deposits (the transfer queue's Put
		// and PutAll return before a consumer arrives): conservation is
		// checked, synchrony is not a property of the structure.
		buffered bool
	}
	var inputs []input
	for _, a := range Algorithms(true) {
		inputs = append(inputs, input{name: a.Name, newQ: a.New, k: 1})
	}
	for _, c := range scalingSeries() {
		opts := c.opts
		inputs = append(inputs, input{
			name: "scaling/" + c.name,
			newQ: func() SQ { return synchq.New[int64](opts...) },
			k:    1,
		})
	}
	for _, c := range batchCores() {
		for _, k := range []int{1, 8} {
			inputs = append(inputs, input{
				name:     fmt.Sprintf("batch/%s/k=%d", c.name, k),
				newQ:     c.New,
				k:        k,
				buffered: c.name == "transfer",
			})
		}
	}
	for _, in := range inputs {
		t.Run(in.name, func(t *testing.T) {
			rec := verify.NewRecorder()
			res := RunHandoff(in.newQ(), 3, 2, in.k, 600, rec)
			if res.Transfers != 600 {
				t.Fatalf("Transfers = %d, want 600", res.Transfers)
			}
			h := rec.History()
			if len(h) != 1200 {
				t.Fatalf("recorded %d operations, want 600 puts + 600 takes", len(h))
			}
			vres := verify.CheckClassified(h, true)
			if len(vres.Conservation) > 0 {
				t.Fatalf("conservation failed: %v", vres.Conservation)
			}
			if in.buffered {
				return
			}
			if len(vres.Synchrony) > 0 {
				t.Fatalf("synchrony failed: %v", vres.Synchrony)
			}
			if vres.Transfers != 600 {
				t.Fatalf("verified %d transfers, want 600", vres.Transfers)
			}
		})
	}
}

func TestRunHandoffRatios(t *testing.T) {
	a, _ := ByName("New SynchQueue (fair)")
	for _, ratio := range [][2]int{{1, 1}, {1, 4}, {4, 1}, {3, 5}} {
		res := RunHandoff(a.New(), ratio[0], ratio[1], 1, 400, nil)
		if res.Transfers != 400 || res.Elapsed <= 0 {
			t.Fatalf("ratio %v: bad result %+v", ratio, res)
		}
		if res.NsPerTransfer() <= 0 {
			t.Fatalf("ratio %v: NsPerTransfer = %v", ratio, res.NsPerTransfer())
		}
	}
}

func TestRunPoolExecutesAllTasks(t *testing.T) {
	for _, a := range Algorithms(false) {
		if a.NewPoolQueue == nil {
			continue
		}
		a := a
		t.Run(a.Name, func(t *testing.T) {
			res := RunPool(a.NewPoolQueue(), 4, 500)
			if res.Tasks != 500 {
				t.Fatalf("Tasks = %d, want 500", res.Tasks)
			}
			if res.NsPerTask() <= 0 {
				t.Fatal("NsPerTask not positive")
			}
		})
	}
}

func TestFigureSmoke(t *testing.T) {
	// Tiny sweeps to check the full figure plumbing end to end.
	opts := SweepOpts{Transfers: 200, Levels: []int{1, 2}, Repeats: 1}
	for _, fig := range []func(SweepOpts) interface{ Render() string }{
		func(o SweepOpts) interface{ Render() string } { return Figure3(o) },
		func(o SweepOpts) interface{ Render() string } { return Figure4(o) },
		func(o SweepOpts) interface{ Render() string } { return Figure5(o) },
		func(o SweepOpts) interface{ Render() string } { return Figure6(o) },
	} {
		out := fig(opts).Render()
		if !strings.Contains(out, "SynchronousQueue") || !strings.Contains(out, "New SynchQueue") {
			t.Fatalf("figure output missing series:\n%s", out)
		}
	}
}

func TestHandoffResultZeroTransfers(t *testing.T) {
	r := HandoffResult{}
	if r.NsPerTransfer() != 0 {
		t.Fatal("zero-transfer result should report 0 ns")
	}
	p := PoolResult{}
	if p.NsPerTask() != 0 {
		t.Fatal("zero-task result should report 0 ns")
	}
}

func TestAblationTablesSmoke(t *testing.T) {
	opts := SweepOpts{Transfers: 200, Levels: []int{1, 2}, Repeats: 1}
	if out := AblationSpin(opts).Render(); !strings.Contains(out, "stack/default") {
		t.Fatalf("AblationSpin output missing series:\n%s", out)
	}
	cleanOpts := SweepOpts{Transfers: 50, Levels: []int{1}, Repeats: 1}
	if out := AblationClean(cleanOpts).Render(); !strings.Contains(out, "queue/") {
		t.Fatalf("AblationClean output missing series:\n%s", out)
	}
	if out := AblationElimination(opts).Render(); !strings.Contains(out, "eliminating") {
		t.Fatalf("AblationElimination output missing series:\n%s", out)
	}
}

func TestProcsSweepRestoresGOMAXPROCS(t *testing.T) {
	before := runtime.GOMAXPROCS(0)
	out := ProcsSweep(SweepOpts{Transfers: 200, Levels: []int{1, 2}, Repeats: 1}, 2).Render()
	if runtime.GOMAXPROCS(0) != before {
		t.Fatalf("GOMAXPROCS not restored: %d -> %d", before, runtime.GOMAXPROCS(0))
	}
	if !strings.Contains(out, "New SynchQueue") {
		t.Fatalf("ProcsSweep output missing series:\n%s", out)
	}
}
