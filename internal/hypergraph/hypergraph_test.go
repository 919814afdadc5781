package hypergraph

import (
	"strings"
	"testing"

	"engage/internal/rdl"
	"engage/internal/resource"
	"engage/internal/spec"
	"engage/internal/testlib"
)

func fig2Graph(t *testing.T) *Graph {
	t.Helper()
	reg, err := testlib.OpenMRSRegistry()
	if err != nil {
		t.Fatal(err)
	}
	p, err := testlib.Fig2Partial()
	if err != nil {
		t.Fatal(err)
	}
	g, err := Generate(reg, p)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestFig5Shape verifies the generated hypergraph matches Fig. 5 of the
// paper: nodes {server, tomcat, openmrs, jdk, jre, mysql}; the three
// spec nodes marked; inside edges to server/tomcat; env hyperedges from
// tomcat and openmrs to {jdk, jre}; a peer edge from openmrs to mysql.
func TestFig5Shape(t *testing.T) {
	g := fig2Graph(t)

	if g.Len() != 6 {
		t.Fatalf("Fig. 5 has 6 nodes, got %d: %v", g.Len(), g.Order)
	}
	wantKeys := map[string]string{
		"server":  "Mac-OSX 10.6",
		"tomcat":  "Tomcat 6.0.18",
		"openmrs": "OpenMRS 1.8",
	}
	for id, key := range wantKeys {
		n, ok := g.Node(id)
		if !ok {
			t.Fatalf("missing node %q", id)
		}
		if n.Key.String() != key {
			t.Errorf("node %q key = %q, want %q", id, n.Key, key)
		}
		if !n.FromSpec {
			t.Errorf("node %q should be marked FromSpec", id)
		}
	}

	// The auto-created nodes: JDK, JRE, MySQL — all on machine "server".
	var jdk, jre, mysql *Node
	for _, n := range g.Nodes() {
		switch n.Key.Name {
		case "JDK":
			jdk = n
		case "JRE":
			jre = n
		case "MySQL":
			mysql = n
		}
	}
	if jdk == nil || jre == nil || mysql == nil {
		t.Fatalf("expected auto-created JDK, JRE, MySQL nodes: %v", g.Order)
	}
	for _, n := range []*Node{jdk, jre, mysql} {
		if n.Machine != "server" {
			t.Errorf("node %q machine = %q, want server", n.ID, n.Machine)
		}
		if n.FromSpec {
			t.Errorf("auto-created node %q must not be FromSpec", n.ID)
		}
		if n.Inside != "server" {
			t.Errorf("node %q inside = %q, want server", n.ID, n.Inside)
		}
	}

	// Machines resolve through the inside chain.
	om, _ := g.Node("openmrs")
	if om.Machine != "server" || om.Inside != "tomcat" {
		t.Errorf("openmrs machine/inside = %q/%q", om.Machine, om.Inside)
	}

	// Edges: tomcat --env--> {jdk, jre}; openmrs --env--> {jdk, jre};
	// openmrs --peer--> {mysql}; inside edges from tomcat, openmrs, and
	// the auto-created nodes.
	tomcatEnv := findEdge(g, "tomcat", resource.DepEnv)
	if tomcatEnv == nil || len(tomcatEnv.Targets) != 2 {
		t.Fatalf("tomcat env hyperedge wrong: %+v", tomcatEnv)
	}
	openmrsEnv := findEdge(g, "openmrs", resource.DepEnv)
	if openmrsEnv == nil || len(openmrsEnv.Targets) != 2 {
		t.Fatalf("openmrs env hyperedge wrong: %+v", openmrsEnv)
	}
	// Both env hyperedges must share the same JDK/JRE nodes (no
	// duplicate instantiation on the same machine).
	if !sameTargets(tomcatEnv.Targets, openmrsEnv.Targets) {
		t.Errorf("tomcat and openmrs env targets differ: %v vs %v", tomcatEnv.Targets, openmrsEnv.Targets)
	}
	peer := findEdge(g, "openmrs", resource.DepPeer)
	if peer == nil || len(peer.Targets) != 1 || peer.Targets[0] != mysql.ID {
		t.Fatalf("openmrs peer hyperedge wrong: %+v", peer)
	}
	inside := findEdge(g, "openmrs", resource.DepInside)
	if inside == nil || len(inside.Targets) != 1 || inside.Targets[0] != "tomcat" {
		t.Fatalf("openmrs inside edge wrong: %+v", inside)
	}
}

func findEdge(g *Graph, source string, class resource.DependencyClass) *Hyperedge {
	for i := range g.Edges {
		if g.Edges[i].Source == source && g.Edges[i].Class == class {
			return &g.Edges[i]
		}
	}
	return nil
}

func sameTargets(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	set := make(map[string]bool, len(a))
	for _, x := range a {
		set[x] = true
	}
	for _, y := range b {
		if !set[y] {
			return false
		}
	}
	return true
}

func TestGenerateDeterministic(t *testing.T) {
	g1 := fig2Graph(t)
	g2 := fig2Graph(t)
	if strings.Join(g1.Order, ",") != strings.Join(g2.Order, ",") {
		t.Errorf("node order not deterministic: %v vs %v", g1.Order, g2.Order)
	}
	if len(g1.Edges) != len(g2.Edges) {
		t.Errorf("edge count not deterministic")
	}
}

func TestGeneratePortMapsCarried(t *testing.T) {
	g := fig2Graph(t)
	e := findEdge(g, "openmrs", resource.DepPeer)
	if e.PortMap["mysql"] != "mysql" {
		t.Errorf("peer edge port map lost: %+v", e.PortMap)
	}
}

func TestGenerateErrors(t *testing.T) {
	reg, err := testlib.OpenMRSRegistry()
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name string
		p    *spec.Partial
		want string
	}{
		{
			"unknown type",
			partial(t, `[{"id": "x", "key": "Mystery 1"}]`),
			"unknown resource type",
		},
		{
			"abstract type",
			partial(t, `[{"id": "x", "key": "Java"}]`),
			"abstract",
		},
		{
			"duplicate id",
			partial(t, `[{"id": "a", "key": "Mac-OSX 10.6"}, {"id": "a", "key": "Mac-OSX 10.6"}]`),
			"duplicate",
		},
		{
			"missing container",
			partial(t, `[{"id": "t", "key": "Tomcat 6.0.18", "inside": {"id": "ghost"}}]`),
			"not in specification",
		},
		{
			"unresolved inside",
			partial(t, `[{"id": "t", "key": "Tomcat 6.0.18"}]`),
			"unresolved inside",
		},
		{
			"wrong container type",
			partial(t, `[
				{"id": "server", "key": "Mac-OSX 10.6"},
				{"id": "db", "key": "MySQL 5.1", "inside": {"id": "server"}},
				{"id": "t", "key": "Tomcat 6.0.18", "inside": {"id": "db"}}]`),
			"does not satisfy inside dependency",
		},
	}
	for _, c := range cases {
		_, err := Generate(reg, c.p)
		if err == nil {
			t.Errorf("%s: expected error containing %q", c.name, c.want)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q, want substring %q", c.name, err, c.want)
		}
	}
}

func partial(t *testing.T, js string) *spec.Partial {
	t.Helper()
	var p spec.Partial
	if err := p.UnmarshalJSON([]byte(js)); err != nil {
		t.Fatal(err)
	}
	return &p
}

// TestPeerReuseAcrossMachines: a peer dependency may be satisfied by an
// instance on another machine (unlike env).
func TestPeerReuseAcrossMachines(t *testing.T) {
	reg, err := testlib.OpenMRSRegistry()
	if err != nil {
		t.Fatal(err)
	}
	p := partial(t, `[
		{"id": "dbhost", "key": "Mac-OSX 10.6"},
		{"id": "apphost", "key": "Mac-OSX 10.6"},
		{"id": "mysql", "key": "MySQL 5.1", "inside": {"id": "dbhost"}},
		{"id": "tomcat", "key": "Tomcat 6.0.18", "inside": {"id": "apphost"}},
		{"id": "openmrs", "key": "OpenMRS 1.8", "inside": {"id": "tomcat"}}
	]`)
	g, err := Generate(reg, p)
	if err != nil {
		t.Fatal(err)
	}
	// The peer edge must target the existing mysql on dbhost, not create
	// a new one on apphost.
	e := findEdge(g, "openmrs", resource.DepPeer)
	if e == nil || len(e.Targets) != 1 || e.Targets[0] != "mysql" {
		t.Fatalf("peer should reuse remote mysql: %+v", e)
	}
	// Env deps (Java) must NOT be satisfied across machines: tomcat and
	// openmrs need Java on apphost; none exists on dbhost to confuse it,
	// but check the created java nodes are on apphost.
	for _, n := range g.Nodes() {
		if n.Key.Name == "JDK" || n.Key.Name == "JRE" {
			if n.Machine != "apphost" {
				t.Errorf("java node %q on machine %q, want apphost", n.ID, n.Machine)
			}
		}
	}
}

// TestEnvNotSharedAcrossMachines: an env dependency creates a fresh
// instance per machine even when one exists elsewhere.
func TestEnvNotSharedAcrossMachines(t *testing.T) {
	reg, err := testlib.OpenMRSRegistry()
	if err != nil {
		t.Fatal(err)
	}
	p := partial(t, `[
		{"id": "m1", "key": "Mac-OSX 10.6"},
		{"id": "m2", "key": "Mac-OSX 10.6"},
		{"id": "t1", "key": "Tomcat 6.0.18", "inside": {"id": "m1"}},
		{"id": "t2", "key": "Tomcat 6.0.18", "inside": {"id": "m2"}}
	]`)
	g, err := Generate(reg, p)
	if err != nil {
		t.Fatal(err)
	}
	count := map[string]int{}
	for _, n := range g.Nodes() {
		if n.Key.Name == "JDK" {
			count[n.Machine]++
		}
	}
	if count["m1"] != 1 || count["m2"] != 1 {
		t.Errorf("each machine needs its own JDK: %v", count)
	}
}

// TestLemma1: every node is either from the spec or transitively
// depended on by a spec node, and every non-machine node has an inside
// edge (Lemma 1 of the paper).
func TestLemma1(t *testing.T) {
	g := fig2Graph(t)

	// (ii)-(iv): every node with an inside container has an inside edge.
	for _, n := range g.Nodes() {
		if n.Inside == "" {
			continue
		}
		if e := findEdge(g, n.ID, resource.DepInside); e == nil {
			t.Errorf("node %q has container but no inside edge", n.ID)
		}
	}

	// (i): reachability from spec nodes via hyperedges covers all
	// non-spec nodes.
	reach := make(map[string]bool)
	var stack []string
	for _, n := range g.Nodes() {
		if n.FromSpec {
			reach[n.ID] = true
			stack = append(stack, n.ID)
		}
	}
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, e := range g.EdgesFrom(id) {
			for _, tgt := range e.Targets {
				if !reach[tgt] {
					reach[tgt] = true
					stack = append(stack, tgt)
				}
			}
		}
	}
	for _, n := range g.Nodes() {
		if !reach[n.ID] {
			t.Errorf("node %q unreachable from spec nodes", n.ID)
		}
	}
}

func TestFreshIDCollision(t *testing.T) {
	g := NewGraph()
	k := resource.MakeKey("JDK", "1.6")
	id1 := g.freshID(k, "server")
	g.add(&Node{ID: id1, Key: k})
	id2 := g.freshID(k, "server")
	if id1 == id2 {
		t.Errorf("freshID returned duplicate %q", id1)
	}
}

// TestNoSelfMatch: a resource whose type is structurally a subtype of
// its own dependency target must not satisfy that dependency itself.
func TestNoSelfMatch(t *testing.T) {
	src := `
abstract resource "Server" {}
resource "Base 1" { inside "Server" output { o: string = "b" } }
resource "Wrap 1" {
    inside "Server"
    input { o: string }
    peer "Base 1" { o -> o }
    output { o: string = "w" }
}`
	reg, err := rdl.ParseAndResolve(map[string]string{"t.rdl": src})
	if err != nil {
		t.Fatal(err)
	}
	// Wrap is structurally a subtype of Base (same output o plus more),
	// so naive matching could resolve Wrap's peer dep to Wrap itself.
	p := partial(t, `[
		{"id": "box", "key": "Server"},
		{"id": "wrap", "key": "Wrap 1", "inside": {"id": "box"}}
	]`)
	// Server is abstract — use a concrete machine instead.
	_ = p
	src2 := src + "\nresource \"Box 1\" extends \"Server\" {}\n"
	reg, err = rdl.ParseAndResolve(map[string]string{"t.rdl": src2})
	if err != nil {
		t.Fatal(err)
	}
	p2 := partial(t, `[
		{"id": "box", "key": "Box 1"},
		{"id": "wrap", "key": "Wrap 1", "inside": {"id": "box"}}
	]`)
	g, err := Generate(reg, p2)
	if err != nil {
		t.Fatal(err)
	}
	e := findEdge(g, "wrap", resource.DepPeer)
	if e == nil {
		t.Fatal("missing peer edge")
	}
	for _, tgt := range e.Targets {
		if tgt == "wrap" {
			t.Fatal("a node must not satisfy its own dependency")
		}
	}
	// A fresh Base instance was created instead.
	found := false
	for _, n := range g.Nodes() {
		if n.Key.Name == "Base" {
			found = true
		}
	}
	if !found {
		t.Error("expected auto-created Base instance")
	}
}
