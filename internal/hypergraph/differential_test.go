package hypergraph_test

import (
	"fmt"
	"reflect"
	"testing"

	"engage/internal/certify"
	"engage/internal/config"
	"engage/internal/hypergraph"
	"engage/internal/rdl"
	"engage/internal/resource"
	"engage/internal/spec"
	"engage/internal/testlib"
	"engage/internal/workload"
)

// The differential suite proves the memoized Generate exact against the
// naive oracle (GenerateNaive, naive_test.go), which rescans the node
// list for every query: same node order, node contents, edge list and
// errors. Every fixture's Configure output must also pass the
// solver-free plan checker. CI runs this under -race.

type fixture struct {
	name    string
	reg     *resource.Registry
	partial *spec.Partial
}

// oracleSeeds is the width of the seeded-fleet sweep.
const oracleSeeds = 100

// fixtures returns the paper's OpenMRS stack, the memo edge-case stack,
// twelve seeded fleets of three shapes, and oracleSeeds seeded fleets
// of one shape.
func fixtures(t *testing.T) []fixture {
	t.Helper()
	omrsReg, err := testlib.OpenMRSRegistry()
	if err != nil {
		t.Fatalf("OpenMRSRegistry: %v", err)
	}
	omrsPartial, err := testlib.Fig2Partial()
	if err != nil {
		t.Fatalf("Fig2Partial: %v", err)
	}
	out := []fixture{{"openmrs", omrsReg, omrsPartial}, memoEdgeFixture(t)}
	add := func(name string, shape workload.Spec) {
		reg, partial, err := workload.Generate(shape)
		if err != nil {
			t.Fatalf("workload.Generate(%s): %v", name, err)
		}
		out = append(out, fixture{name, reg, partial})
	}

	shapes := []workload.Spec{
		{},                                      // defaults
		{Families: 4, Versions: 2, Machines: 2}, // tiny
		{Families: 12, Versions: 4, EnvFanout: 3, PeerFanout: 2, Machines: 6, Instances: 4},
	}
	for si, shape := range shapes {
		for seed := int64(0); seed < 4; seed++ {
			shape.Seed = seed
			add(fmt.Sprintf("fleet%d_seed%d", si, seed), shape)
		}
	}
	for seed := int64(0); seed < oracleSeeds; seed++ {
		add(fmt.Sprintf("seed%03d", seed), workload.Spec{
			Seed: seed, Families: 8, Versions: 3, EnvFanout: 2, PeerFanout: 1, Machines: 3, Instances: 3,
		})
	}
	return out
}

// memoEdgeFixture is a stack that exercises the two lookups where the
// memo's bookkeeping matters.
//
//   - Self match: Wrap 1 extends Base 1 and has a peer dependency on
//     Base 1. The first match for wrap's query is wrap itself, which the
//     query excludes, so the answer is the second match, base. A memo
//     that kept only one match per key would answer "none" and create a
//     node.
//   - Container order: Top 1 needs an App 1, which is created on the box
//     and lives inside A 1 or B 1. The container is the first node in
//     creation order matching either alternative (b), not the first
//     match of the first alternative (a).
func memoEdgeFixture(t *testing.T) fixture {
	t.Helper()
	src := `
resource "Box 1" {}
resource "Base 1" { inside "Box 1" }
resource "Wrap 1" extends "Base 1" {
    inside "Box 1"
    peer "Base 1"
}
resource "A 1" { inside "Box 1" }
resource "B 1" { inside "Box 1" }
resource "App 1" { inside one_of("A 1", "B 1") }
resource "Top 1" {
    inside "Box 1"
    env "App 1"
}`
	reg, err := rdl.ParseAndResolve(map[string]string{"memo_edges.rdl": src})
	if err != nil {
		t.Fatalf("memo_edges.rdl: %v", err)
	}
	p := &spec.Partial{}
	p.Add("box", resource.MakeKey("Box", "1"))
	p.Add("wrap", resource.MakeKey("Wrap", "1")).In("box")
	p.Add("base", resource.MakeKey("Base", "1")).In("box")
	p.Add("b", resource.MakeKey("B", "1")).In("box")
	p.Add("a", resource.MakeKey("A", "1")).In("box")
	p.Add("top", resource.MakeKey("Top", "1")).In("box")
	return fixture{"memo_edges", reg, p}
}

func TestGenerateMatchesOracle(t *testing.T) {
	for _, fx := range fixtures(t) {
		t.Run(fx.name, func(t *testing.T) {
			want, err := hypergraph.GenerateNaive(fx.reg, fx.partial)
			if err != nil {
				t.Fatalf("oracle: %v", err)
			}
			got, err := hypergraph.Generate(fx.reg, fx.partial)
			if err != nil {
				t.Fatalf("Generate: %v", err)
			}
			assertSameGraph(t, want, got)

			full, err := config.New(fx.reg).Configure(fx.partial)
			if err != nil {
				t.Fatalf("Configure: %v", err)
			}
			if diags := certify.CheckPlan(fx.reg, fx.partial, full); len(diags) != 0 {
				t.Fatalf("CheckPlan refutes the Configure output: %v", diags)
			}
		})
	}
}

func assertSameGraph(t *testing.T, want, got *hypergraph.Graph) {
	t.Helper()
	if !reflect.DeepEqual(got.Order, want.Order) {
		t.Fatalf("node order differs:\n got %v\nwant %v", got.Order, want.Order)
	}
	for _, id := range want.Order {
		wn, _ := want.Node(id)
		gn, ok := got.Node(id)
		if !ok || !reflect.DeepEqual(gn, wn) {
			t.Fatalf("node %q differs:\n got %+v\nwant %+v", id, gn, wn)
		}
	}
	if !reflect.DeepEqual(got.Edges, want.Edges) {
		t.Fatalf("edge list differs:\n got %+v\nwant %+v", got.Edges, want.Edges)
	}
}

// TestGenerateErrorsMatchOracle: generation errors are identical too,
// both from the initial pass over the partial specification and from
// the middle of the worklist.
func TestGenerateErrorsMatchOracle(t *testing.T) {
	reg, err := testlib.OpenMRSRegistry()
	if err != nil {
		t.Fatalf("OpenMRSRegistry: %v", err)
	}

	// An env dependency whose target can only live inside a machine type
	// that is not present fails during the worklist, not the init pass.
	reg2 := resource.NewRegistry()
	boxA := resource.MakeKey("BoxA", "1")
	boxB := resource.MakeKey("BoxB", "1")
	for _, ty := range []*resource.Type{
		{Key: boxA},
		{Key: boxB},
		{Key: resource.MakeKey("Y", "1"),
			Inside: &resource.Dependency{Alternatives: []resource.Key{boxB}}},
		{Key: resource.MakeKey("X", "1"),
			Inside: &resource.Dependency{Alternatives: []resource.Key{boxA}},
			Env:    []resource.Dependency{resource.Single(resource.MakeKey("Y", "1"), nil)}},
	} {
		if err := reg2.Add(ty); err != nil {
			t.Fatalf("Add(%v): %v", ty.Key, err)
		}
	}
	midway := &spec.Partial{}
	midway.Add("m", boxA)
	midway.Add("x", resource.MakeKey("X", "1")).In("m")

	for _, c := range []fixture{
		{"init", reg, testlib.MustBadPartial()},
		{"worklist", reg2, midway},
	} {
		_, wantErr := hypergraph.GenerateNaive(c.reg, c.partial)
		if wantErr == nil {
			t.Fatalf("%s: expected the oracle to fail", c.name)
		}
		_, err := hypergraph.Generate(c.reg, c.partial)
		if err == nil || err.Error() != wantErr.Error() {
			t.Fatalf("%s: error %v, want %v", c.name, err, wantErr)
		}
	}
}
