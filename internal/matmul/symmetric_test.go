package matmul

import (
	"context"
	"math/rand"
	"strings"
	"testing"

	"github.com/paper-repo-growth/doryp20/clique"
	"github.com/paper-repo-growth/doryp20/internal/core"
	"github.com/paper-repo-growth/doryp20/internal/graph"
)

// TestMirrorNamesAnUnmirroredEntry: on random matrices that equal their
// transpose, with a few entries knocked out, added or given another
// value, the one-pass walk finds a matrix unequal to its transpose
// exactly when some entry's mirror is missing or holds another value,
// and the entry it names is such an entry.
func TestMirrorNamesAnUnmirroredEntry(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 400; trial++ {
		n := 1 + rng.Intn(12)
		val := make([][]int64, n) // 0: no entry
		for i := range val {
			val[i] = make([]int64, n)
		}
		for i := 0; i < n; i++ {
			for j := i; j < n; j++ {
				if rng.Intn(3) == 0 {
					x := 1 + rng.Int63n(3)
					val[i][j], val[j][i] = x, x
				}
			}
		}
		for flips := rng.Intn(3); flips > 0; flips-- {
			i, j := rng.Intn(n), rng.Intn(n)
			val[i][j] = rng.Int63n(4) // 0 knocks the entry out
		}
		m := &Matrix{N: n, Sr: core.MinPlus(), Rows: make([]int32, 1, n+1)}
		want := false
		for i := range val {
			for j, x := range val[i] {
				if x != 0 {
					m.Cols, m.Vals = append(m.Cols, core.NodeID(j)), append(m.Vals, x)
					want = want || val[j][i] != x
				}
			}
			m.Rows = append(m.Rows, int32(len(m.Cols)))
		}
		i, j, asym := m.mirror()
		if asym != want {
			t.Fatalf("trial %d: mirror reports %v for %v, want %v", trial, asym, val, want)
		}
		if asym && (val[i][j] == 0 || val[j][i] == val[i][j]) {
			t.Fatalf("trial %d: named (%d, %d) for %v, whose mirror holds its value", trial, i, j, val)
		}
	}
}

// patternMatrix is the struct literal whose row v stores the columns
// rows[v], each with value 1: a matrix no constructor built.
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

// TestPassRejectsAsymmetricA: a row-pull product over an A whose pattern
// is not symmetric, built as a struct literal that no constructor
// checked, is refused before any round runs — by NewPass and
// NewDensePass, and by a Relaxation through Session.Run, whose loop
// checks symmetry before its diagonal — with an error naming an entry
// whose mirror is absent. Node k streams its row of B
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

// TestOperandContractRefusals: every product needs an A equal to its
// transpose, and every Power and Relaxation loop one with One on its
// diagonal too. Over every semiring (the generic loop included), an A
// that breaks either — an entry without its mirror, a mirrored pair of
// two values (not over (or,and), whose one value is One), a diagonal
// entry that is not One — is refused with an error naming the entry: by
// NewPass and NewDensePass, and by a Power and a Relaxation through
// Session.Run, which then has run no pass, no round and no word. A bare
// product needs no diagonal, and takes the A that lacks one.
func TestOperandContractRefusals(t *testing.T) {
	const n = 5
	for _, sr := range append(core.AllSemirings(), generic(core.MinPlus())) {
		base, err := FromGraph(graph.Path(n).WithUniformRandomWeights(2, 9), sr, true)
		if err != nil {
			t.Fatal(err)
		}
		x, y := sr.EdgeValue(3, true), sr.EdgeValue(4, true)
		for _, tc := range []struct {
			name  string
			edit  func(d *Dense) // how A departs from base
			entry string         // what the error names
			loop  bool           // only a loop refuses it
		}{
			{"pattern", func(d *Dense) { d.Row(3)[1] = x }, "stores (3, 1) but not (1, 3)", false},
			{"value", func(d *Dense) { d.Row(2)[3], d.Row(3)[2] = x, y }, "stores (2, 3) but not (3, 2) with its value", false},
			{"no diagonal", func(d *Dense) { d.Row(2)[2] = sr.Zero }, "lacks One at (2, 2)", true},
		} {
			if tc.name == "value" && x == y {
				continue
			}
			name := sr.Name + " " + tc.name
			d := dense(base)
			tc.edit(d)
			a := sparse(d)
			b := NewDense(n, 2, sr)
			for v := 0; v < n; v++ {
				b.Row(core.NodeID(v))[v%2] = x
			}
			for product, err := range map[string]error{"NewPass": second(NewPass(a, a, false)), "NewDensePass": second(NewDensePass(a, b, false))} {
				switch {
				case tc.loop && err != nil:
					t.Errorf("%s %s: %v; a bare product needs no diagonal", name, product, err)
				case !tc.loop && (err == nil || !strings.Contains(err.Error(), tc.entry)):
					t.Errorf("%s %s: err = %v, want one that %s", name, product, err, tc.entry)
				}
			}
			for _, k := range []clique.Kernel{NewPower(a, 4), NewRelaxation(a, []core.NodeID{0, 4}, 3)} {
				s, err := clique.NewSize(n)
				if err != nil {
					t.Fatal(err)
				}
				err = s.Run(context.Background(), k)
				st := s.Stats()
				s.Close()
				if err == nil || !strings.Contains(err.Error(), tc.entry) {
					t.Errorf("%s %s: err = %v, want one that %s", name, k.Name(), err, tc.entry)
				}
				if st.Runs != 0 || st.Engine.Rounds != 0 || st.Engine.TotalMsgs != 0 {
					t.Errorf("%s %s: the refused loop ran %d passes, %d rounds and %d words", name, k.Name(), st.Runs, st.Engine.Rounds, st.Engine.TotalMsgs)
				}
			}
		}
	}
}

// second returns the error of a constructor's two results.
func second(_ *Pass, err error) error { return err }
