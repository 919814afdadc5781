package constraint

import (
	"fmt"
	"slices"
	"testing"

	"engage/internal/hypergraph"
	"engage/internal/sat"
)

// conflictGraph builds the canonical unsatisfiable shape: app's edge
// must choose exactly one of db1/db2, but both are spec-pinned.
func conflictGraph() *hypergraph.Graph {
	g := hypergraph.NewGraph()
	g.AddNode(&hypergraph.Node{ID: "app", FromSpec: true})
	g.AddNode(&hypergraph.Node{ID: "db1", FromSpec: true})
	g.AddNode(&hypergraph.Node{ID: "db2", FromSpec: true})
	g.AddEdge(hypergraph.Hyperedge{Source: "app", Targets: []string{"db1", "db2"}})
	return g
}

// satGraph is the same shape with only one pinned target.
func satGraph() *hypergraph.Graph {
	g := hypergraph.NewGraph()
	g.AddNode(&hypergraph.Node{ID: "app", FromSpec: true})
	g.AddNode(&hypergraph.Node{ID: "db1", FromSpec: true})
	g.AddNode(&hypergraph.Node{ID: "db2"})
	g.AddEdge(hypergraph.Hyperedge{Source: "app", Targets: []string{"db1", "db2"}})
	return g
}

// oneOfGraph is a spec-pinned source whose one hyperedge chooses
// among n targets t1..tn, with the targets numbered in pinned also
// spec-pinned. Pinning one target is satisfiable with exactly that
// target selected; pinning two is unsatisfiable.
func oneOfGraph(n int, pinned ...int) *hypergraph.Graph {
	g := hypergraph.NewGraph()
	g.AddNode(&hypergraph.Node{ID: "src", FromSpec: true})
	targets := make([]string, n)
	for i := range targets {
		targets[i] = fmt.Sprintf("t%d", i+1)
		g.AddNode(&hypergraph.Node{ID: targets[i], FromSpec: slices.Contains(pinned, i+1)})
	}
	g.AddEdge(hypergraph.Hyperedge{Source: "src", Targets: targets})
	return g
}

func TestEncodeAssumableAgreesWithEncode(t *testing.T) {
	type row struct {
		name string
		g    *hypergraph.Graph
		want sat.Status
	}
	rows := []row{
		{"unsat", conflictGraph(), sat.Unsat},
		{"sat", satGraph(), sat.Sat},
	}
	// Exactly-one over 2..8 targets: the ladder encoding takes its
	// sequential branch from four targets on, in both modes.
	for n := 2; n <= 8; n++ {
		for forced := 1; forced <= n; forced++ {
			rows = append(rows, row{fmt.Sprintf("one_of_%d/forced_%d", n, forced), oneOfGraph(n, forced), sat.Sat})
		}
		rows = append(rows, row{fmt.Sprintf("one_of_%d/forced_two", n), oneOfGraph(n, 1, 2), sat.Unsat})
	}
	// exactlyOneChosen checks a Sat model selects exactly one hyperedge
	// target (every row's graph has one hyperedge).
	exactlyOneChosen := func(t *testing.T, g *hypergraph.Graph, p *Problem, model []bool) {
		t.Helper()
		if _, err := ChosenTarget(g.Edges[0], p.Selected(model)); err != nil {
			t.Fatal(err)
		}
	}
	for _, enc := range []Encoding{Pairwise, Ladder} {
		for _, tc := range rows {
			t.Run(enc.String()+"/"+tc.name, func(t *testing.T) {
				plain := Encode(tc.g, enc)
				res := sat.NewCDCL().Solve(plain.Formula)
				if res.Status != tc.want {
					t.Fatalf("plain encoding: %v, want %v", res.Status, tc.want)
				}
				if tc.want == sat.Sat {
					exactlyOneChosen(t, tc.g, plain, res.Model)
				}
				ap := EncodeAssumable(tc.g, enc)
				inc := sat.StartIncremental(sat.NewCDCL(), ap.Formula)
				res = inc.SolveAssuming(ap.Selectors)
				if res.Status != tc.want {
					t.Fatalf("assumable encoding under all selectors: %v, want %v", res.Status, tc.want)
				}
				if tc.want == sat.Sat {
					exactlyOneChosen(t, tc.g, ap.Problem, res.Model)
				}
				if tc.want == sat.Unsat {
					if len(res.Core) == 0 {
						t.Fatalf("unsat without an assumption core")
					}
					for _, l := range res.Core {
						if _, ok := ap.GroupFor(l); !ok {
							t.Fatalf("core literal %v has no provenance group", l)
						}
					}
				}
			})
		}
	}
}

// TestEncodeAssumableProvenance pins the group bookkeeping: one spec
// group per pinned node, one edge group per hyperedge, all resolvable
// through GroupFor, and selector variables invisible in IDOf.
func TestEncodeAssumableProvenance(t *testing.T) {
	g := conflictGraph()
	ap := EncodeAssumable(g, Pairwise)
	if len(ap.Groups) != 4 || len(ap.Selectors) != 4 {
		t.Fatalf("got %d groups / %d selectors, want 4 spec+edge groups", len(ap.Groups), len(ap.Selectors))
	}
	spec, edge := 0, 0
	for i, gr := range ap.Groups {
		sel := ap.Selectors[i]
		got, ok := ap.GroupFor(sel)
		if !ok || got != gr {
			t.Fatalf("GroupFor(%v) = %+v, %v; want %+v", sel, got, ok, gr)
		}
		if ap.IDOf[sel.Var()] != "" {
			t.Fatalf("selector var %d maps to node %q in IDOf", sel.Var(), ap.IDOf[sel.Var()])
		}
		switch gr.Kind {
		case GroupSpec:
			spec++
			if gr.Edge != -1 {
				t.Fatalf("spec group with edge index %d", gr.Edge)
			}
		case GroupEdge:
			edge++
			if gr.Instance != "app" || gr.Edge != 0 {
				t.Fatalf("edge group = %+v, want source app, edge 0", gr)
			}
		}
	}
	if spec != 3 || edge != 1 {
		t.Fatalf("got %d spec / %d edge groups, want 3 / 1", spec, edge)
	}
}
