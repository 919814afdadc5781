package hypergraph

import (
	"engage/internal/resource"
	"engage/internal/spec"
)

// GenerateNaive is the test oracle for Generate: the same worklist
// algorithm, with every first-match query answered by a fresh scan of
// the node list in creation order and every frontier recomputed. It is
// exported to the external differential suite.
var GenerateNaive = generateNaive

func generateNaive(reg *resource.Registry, partial *spec.Partial) (*Graph, error) {
	return generate(reg, partial, func(g *Graph, sub *resource.Subtyper) resolver {
		return &naiveResolver{g: g, sub: sub, reg: reg}
	})
}

// naiveResolver resolves every query by scanning the live graph.
type naiveResolver struct {
	g   *Graph
	sub *resource.Subtyper
	reg *resource.Registry
}

func (r *naiveResolver) findMatch(k resource.Key, machine, source string) string {
	for _, id := range r.g.Order {
		if id == source {
			continue
		}
		node := r.g.nodes[id]
		if machine != "" && node.Machine != machine {
			continue
		}
		if r.sub.IsSubtype(node.Key, k) {
			return id
		}
	}
	return ""
}

func (r *naiveResolver) findContainer(machine string, alts []resource.Key) string {
	for _, cid := range r.g.Order {
		c := r.g.nodes[cid]
		if c.Machine != machine {
			continue
		}
		if matchesAny(r.sub, c.Key, alts) {
			return cid
		}
	}
	return ""
}

func (r *naiveResolver) frontier(k resource.Key) ([]resource.Key, error) {
	return r.reg.Frontier(k)
}
