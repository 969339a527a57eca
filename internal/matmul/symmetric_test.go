package matmul

import (
	"bytes"
	"context"
	"math/rand"
	"strings"
	"testing"

	"github.com/paper-repo-growth/doryp20/clique"
	"github.com/paper-repo-growth/doryp20/internal/ckptio"
	"github.com/paper-repo-growth/doryp20/internal/core"
	"github.com/paper-repo-growth/doryp20/internal/graph"
)

// patternMatrix is the struct literal whose row v stores the columns
// rows[v], each with value 1: a matrix no constructor decided.
func patternMatrix(rows [][]core.NodeID) *Matrix {
	m := &Matrix{N: len(rows), Sr: core.MinPlus(), Rows: make([]int32, 1, len(rows)+1)}
	for _, cols := range rows {
		for _, j := range cols {
			m.Cols, m.Vals = append(m.Cols, j), append(m.Vals, 1)
		}
		m.Rows = append(m.Rows, int32(len(m.Cols)))
	}
	return m
}

// TestAsymmetryNamesAnUnmirroredEntry: on random patterns, symmetric and
// with a few entries knocked out or added, the one-pass walk finds a
// pattern asymmetric exactly when some entry lacks its mirror, and the
// entry it names is stored while its mirror is not; sparse, deciding
// off the dense, agrees.
func TestAsymmetryNamesAnUnmirroredEntry(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(12)
		set := make([][]bool, n)
		for i := range set {
			set[i] = make([]bool, n)
		}
		for i := 0; i < n; i++ {
			for j := i; j < n; j++ {
				if rng.Intn(3) == 0 {
					set[i][j], set[j][i] = true, true
				}
			}
		}
		for flips := rng.Intn(3); flips > 0; flips-- {
			i, j := rng.Intn(n), rng.Intn(n)
			set[i][j] = !set[i][j]
		}
		rows := make([][]core.NodeID, n)
		want := false
		for i := range set {
			for j, ok := range set[i] {
				if ok {
					rows[i] = append(rows[i], core.NodeID(j))
					want = want || !set[j][i]
				}
			}
		}
		m := patternMatrix(rows)
		i, j, asym := m.asymmetry()
		if asym != want {
			t.Fatalf("trial %d: asymmetry reports %v for %v, want %v", trial, asym, rows, want)
		}
		if asym && (!set[i][j] || set[j][i]) {
			t.Fatalf("trial %d: named (%d, %d) for %v, which is not an entry without its mirror", trial, i, j, rows)
		}
		if d := sparse(dense(m)); d.symmetric == want {
			t.Fatalf("trial %d: sparse decides %v symmetric = %v off the dense", trial, rows, d.symmetric)
		}
	}
}

// TestPassRejectsAsymmetricA: a row-pull product over an A whose pattern
// is not symmetric is refused before any round runs — by NewPass and
// NewDensePass, and by a Relaxation through Session.Run — with an error
// naming an entry whose mirror is absent. Node k streams its row of B
// to the columns of its own row of A, so such an A would leave some
// node without a row it multiplies by.
func TestPassRejectsAsymmetricA(t *testing.T) {
	for _, tc := range []struct {
		rows     [][]core.NodeID
		entry    string // the entry the error names, and its mirror
		unmirror string
	}{
		{[][]core.NodeID{{0, 1}, {0, 1, 2}, {1, 2}, {1, 3}}, "(3, 1)", "(1, 3)"},
		{[][]core.NodeID{{0}, {1, 2}, {0, 1, 2}}, "(2, 0)", "(0, 2)"},
		{[][]core.NodeID{{1}, {}}, "(0, 1)", "(1, 0)"},
	} {
		a := patternMatrix(tc.rows)
		n := a.N
		b := NewDense(n, 2, a.Sr)
		for v := 0; v < n; v++ {
			b.Row(core.NodeID(v))[v%2] = int64(v + 1)
		}
		_, errSparse := NewPass(a, a, false)
		_, errDense := NewDensePass(a, b, false)
		s, err := clique.NewSize(n)
		if err != nil {
			t.Fatal(err)
		}
		errRelax := s.Run(context.Background(), NewRelaxation(a, []core.NodeID{0}, 3))
		st := s.Stats()
		s.Close()
		for name, err := range map[string]error{"NewPass": errSparse, "NewDensePass": errDense, "Relaxation": errRelax} {
			if err == nil || !strings.Contains(err.Error(), "stores "+tc.entry+" but not "+tc.unmirror) {
				t.Errorf("%v %s: err = %v, want one naming %s without %s", tc.rows, name, err, tc.entry, tc.unmirror)
			}
		}
		if st.Runs != 0 || st.Engine.Rounds != 0 {
			t.Errorf("%v: the refused relaxation ran %d passes and %d rounds", tc.rows, st.Runs, st.Engine.Rounds)
		}
	}
}

// TestConstructorsDecideSymmetry: every constructor that builds a CSR
// decides its pattern once — FromGraph, Identity, Add, sparse (behind
// every product loop's results) and ReadMatrix — so no product over it
// scans again; a struct literal stays undecided, and a pattern that is
// not symmetric is never recorded as symmetric.
func TestConstructorsDecideSymmetry(t *testing.T) {
	g := graph.RandomGNPWeighted(30, 0.2, 9, 4)
	sr := core.MinPlus()
	a, err := FromGraph(g, sr, true)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := FromGraph(g, sr, false)
	if err != nil {
		t.Fatal(err)
	}
	sum, err := Add(a, Identity(a.N, sr))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	WriteMatrix(ckptio.NewWriter(&buf), a)
	read, err := ReadMatrix(ckptio.NewReader(bytes.NewReader(buf.Bytes())))
	if err != nil {
		t.Fatal(err)
	}
	p := NewPower(a, 4)
	if _, err := runProduct(a.N, p); err != nil {
		t.Fatal(err)
	}
	for name, m := range map[string]*Matrix{
		"FromGraph reflexive": a, "FromGraph": plain, "Identity": Identity(5, sr),
		"Add": sum, "ReadMatrix": read, "sparse": sparse(dense(a)), "Power result": p.Result().(*Matrix),
	} {
		if !m.symmetric {
			t.Errorf("%s: pattern left undecided", name)
		}
	}
	if patternMatrix([][]core.NodeID{{0}}).symmetric {
		t.Error("a struct literal claims a decided pattern")
	}
	lopsided := patternMatrix([][]core.NodeID{{1}, {}})
	buf.Reset()
	WriteMatrix(ckptio.NewWriter(&buf), lopsided)
	read, err = ReadMatrix(ckptio.NewReader(bytes.NewReader(buf.Bytes())))
	if err != nil {
		t.Fatal(err)
	}
	if sum, err = Add(lopsided, Identity(2, sr)); err != nil {
		t.Fatal(err)
	}
	for name, m := range map[string]*Matrix{"ReadMatrix": read, "Add": sum, "sparse": sparse(dense(lopsided))} {
		if m.symmetric {
			t.Errorf("%s: an asymmetric pattern recorded as symmetric", name)
		}
		if _, err := NewPass(m, m, false); err == nil {
			t.Errorf("%s: NewPass accepted an asymmetric A", name)
		}
	}
}
