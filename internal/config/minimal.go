package config

import (
	"fmt"

	"engage/internal/constraint"
	"engage/internal/hypergraph"
	"engage/internal/sat"
	"engage/internal/spec"
)

// ConfigureMinimal is Configure with a subset-minimality guarantee: the
// returned full installation specification deploys a set of instances
// such that no instance can be removed while still satisfying all
// constraints. This is the flavor of "optimal install" the paper's
// related work explores (OPIUM, apt-pbo); plain Configure relies on the
// solver's default-false branching, which yields small but not provably
// minimal models.
//
// Minimization is the standard iterative strengthening: solve once, then
// for each instance selected but not in the partial specification, try
// re-solving with that instance forced out; keep it out if still
// satisfiable. The loop runs on one incremental session: each trial is a
// SolveAssuming(¬v) on warm solver state (learned clauses, activity, and
// phases carry over), and the decision is committed as a unit AddClause —
// no cold restarts, no formula copying, at most one re-solve per graph
// node.
func (e *Engine) ConfigureMinimal(partial *spec.Partial) (*spec.Full, error) {
	g, err := hypergraph.Generate(e.Registry, partial)
	if err != nil {
		return nil, err
	}
	prob := constraint.Encode(g, e.Encoding)
	solver := e.Solver
	if solver == nil {
		solver = sat.NewCDCL()
	}

	root := e.Tracer.Span("config.minimal")
	defer root.End()
	inc := sat.Observe(sat.StartIncremental(solver, prob.Formula), e.observeSolves(root))
	res := inc.SolveAssuming(nil)
	switch res.Status {
	case sat.Sat:
	case sat.Unsat:
		return nil, e.unsatError(g, root, partial)
	default:
		return nil, fmt.Errorf("config: solver %q gave up", solver.Name())
	}
	model := res.Model

	fromSpec := make(map[string]bool, len(partial.Instances))
	for _, pi := range partial.Instances {
		fromSpec[pi.ID] = true
	}

	// Try to shed every selected non-spec instance, in graph order.
	for _, id := range g.Order {
		v := prob.VarOf[id]
		if fromSpec[id] || !model[v] {
			continue
		}
		trial := inc.SolveAssuming([]sat.Lit{sat.Lit(-v)})
		if trial.Status == sat.Sat {
			// Sheddable: commit the exclusion so later trials build on it.
			inc.AddClause(sat.Clause{sat.Lit(-v)})
			model = trial.Model
		} else {
			// Pin it in so later trials cannot flip it back.
			inc.AddClause(sat.Clause{sat.Lit(v)})
		}
	}

	full, _, err := e.build(g, prob.Selected(model))
	if err == nil {
		err = e.check(full)
	}
	if err != nil {
		return nil, err
	}
	return full, nil
}
