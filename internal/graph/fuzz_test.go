package graph

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

// FuzzLoadEdgeList throws arbitrary bytes at the edge-list parser — the
// trust boundary behind ccserve's POST /graphs endpoint. The corpus
// seeds one input per diagnostic the parser can emit, plus valid
// inputs. Properties: the parser never panics; every accepted graph
// passes Validate; and WriteEdgeList of an accepted graph reloads to an
// identical CSR (the round trip pkg/client relies on).
func FuzzLoadEdgeList(f *testing.F) {
	seeds := []string{
		// Valid inputs in every shape the format allows.
		"0 1\n1 2\n",
		"0 1 5\n1 2 9\n",
		"p 4\n0 1\n",
		"p 4 2\n0 1\n2 3\n",
		"p 3\n",
		"c comment\n# comment\n\n  \t \n0 1\n",
		"p 2 1\n1 0 0\n",
		// One seed per rejection diagnostic.
		"p 2\np 2\n0 1\n",          // duplicate header
		"0 1\np 4\n",               // header after edges
		"0 1 2 3\n",                // wrong field count
		"x 1\n",                    // invalid vertex token
		"0 -1\n",                   // negative vertex
		"1 1\n",                    // self-loop
		"0 1\n1 0\n",               // duplicate edge (flipped orientation)
		"0 1\n1 2 5\n",             // mixed weighted and unweighted
		"0 1 x\n",                  // invalid weight token
		"0 1 -3\n",                 // negative weight
		"p 4 9\n0 1\n",             // header edge count mismatch
		"",                         // empty input, no header
		"p x\n",                    // invalid header vertex count
		"p 4 x\n",                  // invalid header edge count
		"p 2\n0 5\n",               // endpoint out of declared range
		"0 99999999999999999999\n", // endpoint overflows int32
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<16 {
			return // bound parse cost; large inputs add no new paths
		}
		g, err := LoadEdgeList(bytes.NewReader(data))
		if err != nil {
			if g != nil {
				t.Fatalf("non-nil graph alongside error %v", err)
			}
			if !strings.HasPrefix(err.Error(), "graph: ") {
				t.Fatalf("error %q does not carry the package prefix", err)
			}
			return
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("accepted graph fails Validate: %v", err)
		}
		var buf bytes.Buffer
		if err := WriteEdgeList(&buf, g); err != nil {
			t.Fatalf("WriteEdgeList: %v", err)
		}
		g2, err := LoadEdgeList(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("reloading written form: %v\ninput: %q\nwritten: %q", err, data, buf.Bytes())
		}
		if !reflect.DeepEqual(g, g2) {
			t.Fatalf("round trip changed the graph:\n loaded: %+v\n reloaded: %+v", g, g2)
		}
	})
}
