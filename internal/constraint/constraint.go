// Package constraint implements the constraint-generation phase of
// Engage's configuration engine (§4 of the paper): translating a
// dependency hypergraph into Boolean constraints whose satisfying
// assignments are exactly the full installation specifications extending
// the partial specification (Theorem 1).
//
// For each node v mentioned in the partial install specification it
// emits the unit constraint rsrc(v); for each hyperedge with source v
// and targets {v1,…,vn} it emits rsrc(v) → ⊕{rsrc(v1),…,rsrc(vn)}, where
// ⊕S is the exactly-one predicate.
package constraint

import (
	"fmt"

	"engage/internal/hypergraph"
	"engage/internal/sat"
)

// Encoding selects the CNF encoding of the exactly-one predicate.
type Encoding int

// Encodings of ⊕S.
const (
	// Pairwise is the paper's quadratic encoding:
	// (∨ pi) ∧ ∧_{p≠q} (¬p ∨ ¬q).
	Pairwise Encoding = iota
	// Ladder is the linear sequential encoding with auxiliary
	// variables; functionally equivalent, used by ablation bench A2.
	Ladder
)

func (e Encoding) String() string {
	switch e {
	case Pairwise:
		return "pairwise"
	case Ladder:
		return "ladder"
	default:
		return "encoding?"
	}
}

// Problem is a generated SAT problem with the node↔variable mapping.
type Problem struct {
	Formula *sat.Formula
	// VarOf maps a node ID to its propositional variable.
	VarOf map[string]int
	// IDOf maps a variable (1-based) back to its node ID; auxiliary
	// variables introduced by the ladder encoding map to "".
	IDOf []string
}

// Encode generates the Boolean constraints for a hypergraph.
func Encode(g *hypergraph.Graph, enc Encoding) *Problem {
	return encode(g, enc, false).Problem
}

// encode is the one constraint emitter behind Encode and
// EncodeAssumable. Node variables are 1..n in graph order. Each
// constraint group — the unit rsrc(v) of a partial-spec instance, the
// exactly-one of a hyperedge — is emitted in that order; in guarded
// mode the group first gets a fresh selector s and every clause of the
// group carries ¬s. Auxiliary variables (selectors, ladder rungs) are
// numbered in emission order after the node variables.
func encode(g *hypergraph.Graph, enc Encoding, guarded bool) *AssumableProblem {
	f := sat.NewFormula(g.Len())
	p := &AssumableProblem{Problem: &Problem{
		Formula: f,
		VarOf:   make(map[string]int, g.Len()),
		IDOf:    make([]string, g.Len()+1),
	}}
	for i, id := range g.Order {
		v := i + 1
		p.VarOf[id] = v
		p.IDOf[v] = id
	}
	if guarded {
		p.groupOf = make(map[int]int)
	}

	// open starts a constraint group: guard becomes the literals every
	// clause of the group is prefixed with — {¬s} for the group's fresh
	// selector s in guarded mode, nothing in plain mode.
	guard := make([]sat.Lit, 0, 2) // room for ¬s plus one literal
	open := func(gr Group) {
		guard = guard[:0]
		if !guarded {
			return
		}
		s := sat.Lit(f.AddVar())
		p.groupOf[s.Var()] = len(p.Groups)
		p.Selectors = append(p.Selectors, s)
		p.Groups = append(p.Groups, gr)
		guard = append(guard, s.Neg())
	}

	// Unit constraints for partial-spec instances.
	for _, n := range g.Nodes() {
		if n.FromSpec {
			open(Group{Kind: GroupSpec, Instance: n.ID, Edge: -1})
			f.Add(append(guard, sat.Lit(p.VarOf[n.ID]))...)
		}
	}

	// Dependency constraints rsrc(v) → ⊕targets, one per hyperedge.
	var lits []sat.Lit
	for ei, e := range g.Edges {
		open(Group{Kind: GroupEdge, Instance: e.Source, Edge: ei})
		lits = lits[:0]
		for _, t := range e.Targets {
			lits = append(lits, sat.Lit(p.VarOf[t]))
		}
		exactlyOne(f, enc, append(guard, sat.Lit(p.VarOf[e.Source]).Neg()), lits)
	}

	// Auxiliary variables map to "" in IDOf.
	for len(p.IDOf) < f.NumVars+1 {
		p.IDOf = append(p.IDOf, "")
	}
	return p
}

// exactlyOne emits prefix ∨ ⊕lits: every clause of the exactly-one
// predicate over lits, each led by the prefix literals. The dependency
// constraint v → ⊕S is prefix {¬v}. The pairwise encoding is the
// paper's at-least-one clause plus one at-most-one clause per pair. The
// ladder encoding replaces the pairs by the linear sequential
// at-most-one: fresh rungs s_i ≡ "some literal among lits[0..i] is
// true". Ladder falls back to pairwise for three or fewer literals.
func exactlyOne(f *sat.Formula, enc Encoding, prefix, lits []sat.Lit) {
	c := make([]sat.Lit, 0, len(prefix)+len(lits))
	add := func(tail ...sat.Lit) {
		c = append(append(c[:0], prefix...), tail...)
		f.Add(c...)
	}
	add(lits...)
	n := len(lits)
	if enc == Ladder && n > 3 {
		s := make([]sat.Lit, n-1)
		for i := range s {
			s[i] = sat.Lit(f.AddVar())
		}
		add(lits[0].Neg(), s[0])
		for i := 1; i < n-1; i++ {
			add(s[i-1].Neg(), s[i])
			add(lits[i].Neg(), s[i])
			add(lits[i].Neg(), s[i-1].Neg())
		}
		add(lits[n-1].Neg(), s[n-2].Neg())
		return
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			add(lits[i].Neg(), lits[j].Neg())
		}
	}
}

// Selected extracts the set of deployed node IDs from a model.
func (p *Problem) Selected(model []bool) map[string]bool {
	out := make(map[string]bool)
	for v := 1; v < len(model) && v < len(p.IDOf); v++ {
		if model[v] && p.IDOf[v] != "" {
			out[p.IDOf[v]] = true
		}
	}
	return out
}

// ChosenTarget returns the unique selected target of a hyperedge whose
// source is selected; it errors if zero or multiple targets are selected
// (which a correct model cannot produce).
func ChosenTarget(e hypergraph.Hyperedge, selected map[string]bool) (string, error) {
	chosen := ""
	for _, t := range e.Targets {
		if selected[t] {
			if chosen != "" {
				return "", fmt.Errorf("constraint: hyperedge from %q has two selected targets (%q, %q)",
					e.Source, chosen, t)
			}
			chosen = t
		}
	}
	if chosen == "" {
		return "", fmt.Errorf("constraint: hyperedge from %q has no selected target", e.Source)
	}
	return chosen, nil
}
