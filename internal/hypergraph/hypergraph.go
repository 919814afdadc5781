// Package hypergraph implements the hypergraph-generation phase of
// Engage's configuration engine (§4 of the paper, procedure
// GraphGen(R, I) and Lemma 1): a worklist algorithm that takes a partial
// installation specification and constructs a directed hypergraph whose
// nodes are resource instances and whose hyperedges represent
// dependencies between them.
//
// Generate is a direct transcription of the paper's sequential worklist
// algorithm. Its first-match lookups go through a per-call memo
// (matchCache, frontierMemo); the differential suite proves the result
// byte-identical to a naive rescan of the node list, which lives in
// naive_test.go as the test oracle.
package hypergraph

import (
	"fmt"
	"strings"

	"engage/internal/resource"
	"engage/internal/spec"
)

// Node is a resource instance in the hypergraph.
type Node struct {
	ID       string
	Key      resource.Key
	Machine  string // ID of the machine node
	Inside   string // ID of the container node; "" for machines
	FromSpec bool   // appeared in the partial installation specification (the ✓ of Fig. 5)
	Config   map[string]resource.Value
}

// Hyperedge is a dependency hyperedge: from Source to the disjunction of
// Targets (exactly one of which must be deployed when Source is).
type Hyperedge struct {
	Source         string
	Class          resource.DependencyClass
	Targets        []string
	PortMap        map[string]string
	ReversePortMap map[string]string
}

// Graph is the generated hypergraph.
type Graph struct {
	nodes map[string]*Node
	// Order lists node IDs in creation order (deterministic).
	Order []string
	Edges []Hyperedge
}

// NewGraph returns an empty graph; Generate is the usual constructor,
// but synthetic graphs are useful in tests and benchmarks.
func NewGraph() *Graph {
	return &Graph{nodes: make(map[string]*Node)}
}

// AddNode inserts a node; it panics on duplicate IDs.
func (g *Graph) AddNode(n *Node) {
	if _, dup := g.nodes[n.ID]; dup {
		panic(fmt.Sprintf("hypergraph: duplicate node %q", n.ID))
	}
	g.add(n)
}

// AddEdge appends a hyperedge.
func (g *Graph) AddEdge(e Hyperedge) { g.Edges = append(g.Edges, e) }

// Node returns the node with the given ID.
func (g *Graph) Node(id string) (*Node, bool) {
	n, ok := g.nodes[id]
	return n, ok
}

// Nodes returns all nodes in creation order.
func (g *Graph) Nodes() []*Node {
	out := make([]*Node, len(g.Order))
	for i, id := range g.Order {
		out[i] = g.nodes[id]
	}
	return out
}

// Len returns the number of nodes.
func (g *Graph) Len() int { return len(g.Order) }

func (g *Graph) add(n *Node) {
	g.nodes[n.ID] = n
	g.Order = append(g.Order, n.ID)
}

// Generate runs GraphGen(R, I): it processes the partial install
// specification I against the registry R, creating nodes for every
// resource instance that may participate in a full installation
// specification extending I, and hyperedges for their dependencies.
//
// Per the paper: abstract dependency targets are replaced by their
// concrete frontier; environment dependencies are resolved against
// nodes on the same machine (creating new instances on that machine
// when absent); peer dependencies are resolved against nodes anywhere
// (new instances conservatively land on the dependent's machine); and
// no new machines are ever created.
func Generate(reg *resource.Registry, partial *spec.Partial) (*Graph, error) {
	return generate(reg, partial, func(g *Graph, sub *resource.Subtyper) resolver {
		return &memoResolver{match: newMatchCache(g, sub), fr: newFrontierMemo(reg)}
	})
}

// generator is one GraphGen run: the graph being built, the registry,
// the subtype relation, and the resolver answering lookups.
type generator struct {
	g   *Graph
	reg *resource.Registry
	sub *resource.Subtyper
	r   resolver
}

// generate runs GraphGen with the resolver newResolver builds over the
// graph: pass 1 (initFromPartial), then pass 2, the FIFO worklist
// starting from the spec nodes, with every created node queued behind
// them.
func generate(reg *resource.Registry, partial *spec.Partial, newResolver func(*Graph, *resource.Subtyper) resolver) (*Graph, error) {
	g, worklist, err := initFromPartial(reg, partial)
	if err != nil {
		return nil, err
	}
	sub := resource.NewSubtyper(reg)
	gen := &generator{g: g, reg: reg, sub: sub, r: newResolver(g, sub)}
	for len(worklist) > 0 {
		id := worklist[0]
		worklist = worklist[1:]
		edges, created, err := gen.processNode(g.nodes[id])
		if err != nil {
			return nil, err
		}
		g.Edges = append(g.Edges, edges...)
		worklist = append(worklist, created...)
	}
	return g, nil
}

// initFromPartial runs pass 1 of GraphGen: one node per instance of the
// partial specification, with machines resolved along inside chains. The
// returned worklist lists the spec nodes in specification order.
func initFromPartial(reg *resource.Registry, partial *spec.Partial) (*Graph, []string, error) {
	g := &Graph{nodes: make(map[string]*Node)}
	var worklist []string
	for _, pi := range partial.Instances {
		if _, dup := g.nodes[pi.ID]; dup {
			return nil, nil, fmt.Errorf("hypergraph: duplicate instance id %q", pi.ID)
		}
		t, ok := reg.Lookup(pi.Key)
		if !ok {
			return nil, nil, fmt.Errorf("hypergraph: instance %q: unknown resource type %q", pi.ID, pi.Key)
		}
		if t.Abstract {
			return nil, nil, fmt.Errorf("hypergraph: instance %q: abstract type %q cannot be instantiated", pi.ID, pi.Key)
		}
		g.add(&Node{ID: pi.ID, Key: pi.Key, Inside: pi.Inside, FromSpec: true, Config: pi.Config})
		worklist = append(worklist, pi.ID)
	}

	// Resolve machines for the spec nodes (inside chains must stay
	// within the partial specification, per the paper's assumption).
	for _, id := range g.Order {
		m, err := g.resolveMachine(id)
		if err != nil {
			return nil, nil, err
		}
		g.nodes[id].Machine = m
	}
	return g, worklist, nil
}

// resolver answers the lookups of the per-node expansion step against
// the graph being built. Generate uses memoResolver; the naive rescan
// in naive_test.go is the oracle it is tested against.
type resolver interface {
	// findMatch returns the first node in creation order whose key is a
	// subtype of k, excluding source. machine == "" searches all
	// machines (peer dependencies); otherwise only nodes on that
	// machine match (environment dependencies).
	findMatch(k resource.Key, machine, source string) string
	// findContainer returns the first node in creation order on the
	// machine whose key satisfies one of the inside alternatives.
	findContainer(machine string, alts []resource.Key) string
	frontier(k resource.Key) ([]resource.Key, error)
}

// memoResolver answers first-match queries through a matchCache and
// frontier queries through a frontierMemo. Both memos are created by
// one Generate call and never leave it.
type memoResolver struct {
	match *matchCache
	fr    *frontierMemo
}

func (r *memoResolver) findMatch(k resource.Key, machine, source string) string {
	id, _ := r.match.query(k, machine, source)
	return id
}

// findContainer takes the earliest of the per-alternative first
// matches, which is the first node matching any alternative.
func (r *memoResolver) findContainer(machine string, alts []resource.Key) string {
	best, bestIdx := "", -1
	for _, a := range alts {
		if id, idx := r.match.query(a, machine, ""); id != "" && (bestIdx < 0 || idx < bestIdx) {
			best, bestIdx = id, idx
		}
	}
	return best
}

func (r *memoResolver) frontier(k resource.Key) ([]resource.Key, error) {
	return r.fr.frontier(k)
}

// matchCache memoizes first-match resolution over the append-only node
// list. For each (key, machine) pair it remembers the first two
// matching nodes and how far its scan got; a query resumes the scan
// instead of restarting it, so resolving a given pair costs one
// amortized pass over the node list no matter how many dependency
// disjuncts ask. Two matches suffice because a query excludes at most
// one node (the dependent itself).
type matchCache struct {
	g   *Graph
	sub *resource.Subtyper
	m   map[matchKey]*matchEntry
}

type matchKey struct {
	key     resource.Key
	machine string // "" = any machine
}

type matchEntry struct {
	ids     [2]string
	idxs    [2]int
	n       int // filled entries of ids/idxs
	scanned int // g.Order[:scanned] has been scanned
}

func newMatchCache(g *Graph, sub *resource.Subtyper) *matchCache {
	return &matchCache{g: g, sub: sub, m: make(map[matchKey]*matchEntry)}
}

// query returns the first node in creation order whose key is a subtype
// of k (restricted to the machine when non-empty), excluding source,
// together with its position in creation order; ("", -1) when there is
// none.
func (c *matchCache) query(k resource.Key, machine, source string) (string, int) {
	mk := matchKey{key: k, machine: machine}
	e := c.m[mk]
	if e == nil {
		e = &matchEntry{}
		c.m[mk] = e
	}
	for e.n < 2 && e.scanned < len(c.g.Order) {
		id := c.g.Order[e.scanned]
		n := c.g.nodes[id]
		if (machine == "" || n.Machine == machine) && c.sub.IsSubtype(n.Key, k) {
			e.ids[e.n] = id
			e.idxs[e.n] = e.scanned
			e.n++
		}
		e.scanned++
	}
	for i := 0; i < e.n; i++ {
		if e.ids[i] != source {
			return e.ids[i], e.idxs[i]
		}
	}
	return "", -1
}

// frontierMemo memoizes Registry.Frontier, which is a pure function of
// the registry. Callers must not mutate the returned slice.
type frontierMemo struct {
	reg *resource.Registry
	m   map[resource.Key]frontierResult
}

type frontierResult struct {
	keys []resource.Key
	err  error
}

func newFrontierMemo(reg *resource.Registry) *frontierMemo {
	return &frontierMemo{reg: reg, m: make(map[resource.Key]frontierResult)}
}

func (f *frontierMemo) frontier(k resource.Key) ([]resource.Key, error) {
	if r, ok := f.m[k]; ok {
		return r.keys, r.err
	}
	keys, err := f.reg.Frontier(k)
	f.m[k] = frontierResult{keys: keys, err: err}
	return keys, err
}

// processNode runs one worklist step for node n: its inside check plus
// the resolution of every environment and peer dependency. Newly created
// nodes are added to the graph as they appear (later disjuncts may match
// them); the hyperedges and the created IDs are returned in emission
// order so the worklist appends both deterministically.
func (gen *generator) processNode(n *Node) ([]Hyperedge, []string, error) {
	t := gen.reg.MustLookup(n.Key)
	var edges []Hyperedge
	var created []string

	// Inside dependency.
	if t.Inside != nil {
		if n.Inside == "" {
			return nil, nil, fmt.Errorf("hypergraph: instance %q (type %q) has an unresolved inside dependency", n.ID, n.Key)
		}
		container, ok := gen.g.Node(n.Inside)
		if !ok {
			return nil, nil, fmt.Errorf("hypergraph: instance %q: container %q not in specification", n.ID, n.Inside)
		}
		if !matchesAny(gen.sub, container.Key, t.Inside.Alternatives) {
			return nil, nil, fmt.Errorf("hypergraph: instance %q: container %q (type %q) does not satisfy inside dependency %s",
				n.ID, container.ID, container.Key, t.Inside)
		}
		edges = append(edges, Hyperedge{
			Source:         n.ID,
			Class:          resource.DepInside,
			Targets:        []string{container.ID},
			PortMap:        t.Inside.PortMap,
			ReversePortMap: t.Inside.ReversePortMap,
		})
	}

	// Environment dependencies: targets on the same machine.
	for _, d := range t.Env {
		edge, made, err := gen.resolveDep(n, d, resource.DepEnv)
		if err != nil {
			return nil, nil, err
		}
		edges = append(edges, edge)
		created = append(created, made...)
	}

	// Peer dependencies: targets anywhere; new nodes on n's machine.
	for _, d := range t.Peer {
		edge, made, err := gen.resolveDep(n, d, resource.DepPeer)
		if err != nil {
			return nil, nil, err
		}
		edges = append(edges, edge)
		created = append(created, made...)
	}
	return edges, created, nil
}

// resolveDep resolves one environment or peer dependency of node n: for
// each (frontier-expanded) disjunct, find a matching existing node or
// create a new instance. Returns the hyperedge and the IDs of newly
// created nodes.
func (gen *generator) resolveDep(n *Node, d resource.Dependency, class resource.DependencyClass) (Hyperedge, []string, error) {
	var concrete []resource.Key
	for _, alt := range d.Alternatives {
		frontier, err := gen.r.frontier(alt)
		if err != nil {
			return Hyperedge{}, nil, fmt.Errorf("hypergraph: instance %q: %v", n.ID, err)
		}
		concrete = append(concrete, frontier...)
	}

	edge := Hyperedge{
		Source:         n.ID,
		Class:          class,
		PortMap:        d.PortMap,
		ReversePortMap: d.ReversePortMap,
	}
	machineScope := ""
	if class == resource.DepEnv {
		machineScope = n.Machine
	}
	var created []string
	seen := make(map[string]bool)
	for _, k := range concrete {
		target := gen.r.findMatch(k, machineScope, n.ID)
		if target == "" {
			var err error
			target, err = gen.createNode(k, n.Machine)
			if err != nil {
				return Hyperedge{}, nil, fmt.Errorf("hypergraph: resolving %s dependency of %q: %v", class, n.ID, err)
			}
			created = append(created, target)
		}
		if !seen[target] {
			seen[target] = true
			edge.Targets = append(edge.Targets, target)
		}
	}
	return edge, created, nil
}

// createNode instantiates a new node for key k on the given machine,
// resolving its container: the machine itself when the type's inside
// dependency admits it, otherwise an existing node on the machine whose
// key satisfies the dependency.
func (gen *generator) createNode(k resource.Key, machine string) (string, error) {
	t, ok := gen.reg.Lookup(k)
	if !ok {
		return "", fmt.Errorf("unknown resource type %q", k)
	}
	if t.Abstract {
		return "", fmt.Errorf("abstract type %q cannot be instantiated", k)
	}
	id := gen.g.freshID(k, machine)
	node := &Node{ID: id, Key: k, Machine: machine}
	if t.Inside != nil {
		mnode, ok := gen.g.Node(machine)
		if !ok {
			return "", fmt.Errorf("no machine %q for new instance of %q", machine, k)
		}
		if matchesAny(gen.sub, mnode.Key, t.Inside.Alternatives) {
			node.Inside = machine
		} else {
			container := gen.r.findContainer(machine, t.Inside.Alternatives)
			if container == "" {
				return "", fmt.Errorf("no container on machine %q satisfying inside dependency %s of %q",
					machine, t.Inside, k)
			}
			node.Inside = container
		}
	} else {
		// A machine-type dependency would require provisioning a new
		// machine; the constraint-generation process assumes no new
		// machines are created (§2).
		return "", fmt.Errorf("dependency on machine type %q cannot be auto-instantiated (no new machines)", k)
	}
	gen.g.add(node)
	return id, nil
}

// freshID derives a deterministic unique node ID from a key and
// machine.
func (g *Graph) freshID(k resource.Key, machine string) string {
	base := strings.ToLower(strings.ReplaceAll(k.Name, " ", "-"))
	if k.Version != "" {
		base += "-" + k.Version
	}
	if machine != "" {
		base += "@" + machine
	}
	id := base
	for i := 2; ; i++ {
		if _, taken := g.nodes[id]; !taken {
			return id
		}
		id = fmt.Sprintf("%s#%d", base, i)
	}
}

// resolveMachine follows inside links of spec nodes to a machine.
func (g *Graph) resolveMachine(id string) (string, error) {
	seen := make(map[string]bool)
	cur := g.nodes[id]
	for {
		if cur.Inside == "" {
			return cur.ID, nil
		}
		if seen[cur.ID] {
			return "", fmt.Errorf("hypergraph: inside cycle at instance %q", id)
		}
		seen[cur.ID] = true
		next, ok := g.nodes[cur.Inside]
		if !ok {
			return "", fmt.Errorf("hypergraph: instance %q: container %q not in specification", cur.ID, cur.Inside)
		}
		cur = next
	}
}

func matchesAny(sub *resource.Subtyper, k resource.Key, alts []resource.Key) bool {
	for _, a := range alts {
		if sub.IsSubtype(k, a) {
			return true
		}
	}
	return false
}

// EdgesFrom returns the hyperedges with the given source, in order.
func (g *Graph) EdgesFrom(source string) []Hyperedge {
	var out []Hyperedge
	for _, e := range g.Edges {
		if e.Source == source {
			out = append(out, e)
		}
	}
	return out
}
