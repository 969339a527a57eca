package matmul

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"slices"
	"testing"
	"unsafe"

	"github.com/paper-repo-growth/doryp20/internal/ckptio"
	"github.com/paper-repo-growth/doryp20/internal/core"
	"github.com/paper-repo-growth/doryp20/internal/engine"
	"github.com/paper-repo-growth/doryp20/internal/graph"
)

// generic returns sr with its kind cleared, so every loop that would
// specialise on it runs through its Add and Mul instead: a semiring the
// cube knows nothing about.
func generic(sr core.Semiring) core.Semiring {
	f := reflect.ValueOf(&sr).Elem().FieldByName("kind")
	reflect.NewAt(f.Type(), unsafe.Pointer(f.UnsafeAddr())).Elem().SetUint(uint64(core.KindGeneric))
	return sr
}

// cubeAudit wraps a node of a cube pass and fails the run when a word
// reaches it that the cube's node set forbids: a phase-1 word (one
// delivered by round F1) into a node that does not multiply — one with
// a > b on a squaring, one at or past the last cube node on either — or
// a partial row from one, or from a node whose product has no row or
// column this node owns; and, on a Relaxation whose cube nodes hold S's
// blocks, any word of S. The vote's word 0 may go anywhere.
type cubeAudit struct {
	engine.Node
	cb *Pass
}

func (c *cubeAudit) Round(ctx *engine.Ctx, r core.Round, inbox []engine.Message) error {
	id, cb := int(ctx.ID()), c.cb
	for _, m := range inbox {
		src := int(m.Src)
		switch {
		case int(r) <= cb.wide:
			if !cb.multiplies(id) {
				return fmt.Errorf("node %d, which does not multiply, got a phase-1 word from %d", id, src)
			}
			if sh := cb.share(id); cb.s != nil && cb.held && cb.isUpdate(m.Payload, src, &sh) {
				return fmt.Errorf("node %d, which holds its block of S, was sent a word of it by %d", id, src)
			}
		case m.Payload != 0:
			sh := cb.share(src)
			row := id >= sh.la && id < sh.la+sh.ra
			col := cb.s == nil && sh.a < sh.b && id >= sh.lb && id < sh.lb+sh.rb
			if !cb.multiplies(src) || !row && !col {
				return fmt.Errorf("node %d got a partial row from node %d, which owes it none", id, src)
			}
		}
	}
	return c.Node.Round(ctx, r, inbox)
}

// runAudited runs the cube pass p on a fresh engine, every node under a
// cubeAudit and every link checked to carry at most one word a round.
func runAudited(t *testing.T, p *Pass) *engine.Stats {
	t.Helper()
	nodes := make([]engine.Node, p.n)
	for v, nd := range p.Nodes() {
		nodes[v] = &cubeAudit{Node: &linkCheck{Node: nd, perSrc: make([]int, p.n)}, cb: p}
	}
	e, err := engine.New(p.n, engine.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	st, err := e.RunBounded(context.Background(), nodes, p.MaxRoundsHint())
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestHeldChainResumesExactly: a Power chain checkpointed (WritePower,
// ReadPower) at any pass boundary, its cube nodes holding their blocks,
// resumes to bill every remaining pass exactly the rounds and words the
// uninterrupted chain billed, and returns the same matrix.
func TestHeldChainResumesExactly(t *testing.T) {
	g := graph.Path(45).WithUniformRandomWeights(2, 9)
	for _, sr := range core.AllSemirings() {
		a, err := FromGraph(g, sr, true)
		if err != nil {
			t.Fatal(err)
		}
		full := NewPower(a, 64)
		var want []passTraffic
		if _, err := runProduct(a.N, full, trafficHook(&want)); err != nil {
			t.Fatal(err)
		}
		heldStops := 0
		for stop := 1; stop < len(want); stop++ {
			p := NewPower(a, 64)
			if _, err := runProduct(a.N, &stopAfter{Kernel: p, passes: stop}); err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			WritePower(ckptio.NewWriter(&buf), p)
			if p.held() {
				heldStops++
			}
			q, err := ReadPower(ckptio.NewReader(&buf))
			if err != nil {
				t.Fatalf("%s, stop %d: %v", sr.Name, stop, err)
			}
			if q.held() != p.held() {
				t.Fatalf("%s, stop %d: restored held %v, written %v", sr.Name, stop, q.held(), p.held())
			}
			var got []passTraffic
			if _, err := runProduct(a.N, q, trafficHook(&got)); err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(got, want[stop:]) {
				t.Errorf("%s, stop %d: resumed passes bill %v, the uninterrupted chain %v", sr.Name, stop, got, want[stop:])
			}
			if !sameBits(q.Result().(*Matrix), full.Result().(*Matrix)) {
				t.Errorf("%s, stop %d: the resumed power differs", sr.Name, stop)
			}
		}
		if heldStops == 0 {
			t.Errorf("%s: no stop left the cube nodes holding their blocks", sr.Name)
		}
	}
}

// TestCubeSquaringAllocs: a held cube squaring of a chain whose plan is
// sized — building the pass and running it on a warm engine — allocates
// a number of objects that does not grow with n: no node allocates its
// inbox store, its partial rows or its transfers, and the link table is
// the chain's.
func TestCubeSquaringAllocs(t *testing.T) {
	const most = 32
	for _, n := range []int{64, 216} {
		a, err := FromGraph(graph.RandomGNPWeighted(n, 0.05, 30, 1), core.MinPlus(), true)
		if err != nil {
			t.Fatal(err)
		}
		p2, err := MulRef(a, a)
		if err != nil {
			t.Fatal(err)
		}
		x, err := MulRef(p2, p2)
		if err != nil {
			t.Fatal(err)
		}
		dx, dp := dense(x), dense(p2)
		cp := &cubePlan{held: true}
		e, err := engine.New(n, engine.Options{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		var acc []int64
		allocs := testing.AllocsPerRun(5, func() {
			p, err := newPass(dx, dp, true, acc, cp)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := e.RunBounded(context.Background(), p.Nodes(), p.MaxRoundsHint()); err != nil {
				t.Fatal(err)
			}
			acc = p.flat
		})
		e.Close()
		t.Logf("n = %d: %.0f objects", n, allocs)
		if allocs > most {
			t.Errorf("n = %d: a held cube squaring allocates %.0f objects, want at most %d at every n", n, allocs, most)
		}
	}
}

// TestRelaxationProductAllocs: a held 2D relaxation product — a warm
// ccserve query's pass, one source over a dense S — and a voting row-pull
// relaxation product — a hopset construction's, eight hub columns over a
// sparse S, at (n, 1, 1) by the plan its Relaxation keeps — each built
// and run on a warm engine, allocate at most the objects they were
// measured at (5 and 40 at n = 128; 7 and 41 when node 0's verdict in a
// cube pass allocated an n-long []bool and every voting pass its own
// array of voters; about 29 for the row-pull product since its plan
// keeps its nodes and senders' room across products). Both find a
// change, so node 0 sends its verdict in each.
func TestRelaxationProductAllocs(t *testing.T) {
	const n = 128
	sr := core.MinPlus()
	s, sources := relaxFixture(t, n, 1, sr)
	held := relaxPlan(s)
	held.held = true
	base, err := FromGraph(graph.RandomGNPWeighted(n, 0.05, 30, 1), sr, true)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name    string
		s       *Matrix
		sources []core.NodeID
		cp      *cubePlan
		most    float64
	}{
		{"held-2d", s, sources, held, 5},
		{"row-pull", base, []core.NodeID{0, 17, 40, 63, 90, 101, 120, 127}, relaxPlan(base), 40},
	} {
		prev := Indicator(n, tc.sources, sr)
		b, err := MulDenseRef(tc.s, prev)
		if err != nil {
			t.Fatal(err)
		}
		e, err := engine.New(n, engine.Options{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		var acc []int64
		allocs := testing.AllocsPerRun(5, func() {
			p, err := newPass(b, prev, true, acc, tc.cp)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := e.RunBounded(context.Background(), p.Nodes(), p.MaxRoundsHint()); err != nil {
				t.Fatal(err)
			}
			if p.cubePlan != tc.cp || p.rows() != (tc.name == "row-pull") || !p.changed() {
				t.Fatalf("%s: its own plan %v, row-pull %v, changed %v; the fixture must run its schedule and change",
					tc.name, p.cubePlan == tc.cp, p.rows(), p.changed())
			}
			acc = p.flat
		})
		e.Close()
		t.Logf("%s: %.0f objects", tc.name, allocs)
		if allocs > tc.most {
			t.Errorf("%s: one product allocates %.0f objects, want at most %.0f", tc.name, allocs, tc.most)
		}
	}
}
