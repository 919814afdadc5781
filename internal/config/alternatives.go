package config

import (
	"engage/internal/constraint"
	"engage/internal/hypergraph"
	"engage/internal/sat"
	"engage/internal/spec"
)

// Alternatives enumerates up to limit distinct full installation
// specifications extending the partial specification — one per
// satisfying assignment of the install constraints, projected onto the
// resource-instance variables. For the §2 OpenMRS example this returns
// exactly two: one deploying the JDK, one the JRE.
//
// The enumeration runs on one incremental solver session: each
// alternative after the first costs a single blocking clause plus a
// re-solve on warm state (learned clauses, activity, saved phases),
// not a cold solve of the whole constraint system.
//
// A limit ≤ 0 enumerates everything; the solution count is bounded by
// the product of the disjunction widths, so bound it for large stacks.
func (e *Engine) Alternatives(partial *spec.Partial, limit int) ([]*spec.Full, error) {
	root := e.Tracer.Span("config.alternatives")
	defer root.End()
	g, err := hypergraph.Generate(e.Registry, partial)
	if err != nil {
		return nil, err
	}
	prob := constraint.Encode(g, e.Encoding)
	solver := e.Solver
	if solver == nil {
		solver = sat.NewCDCL()
	}

	// Project onto the instance variables only (the ladder encoding's
	// auxiliaries must not multiply solutions).
	project := make([]int, 0, g.Len())
	for _, id := range g.Order {
		project = append(project, prob.VarOf[id])
	}

	inc := sat.Observe(sat.StartIncremental(solver, prob.Formula), e.observeSolves(root))
	models, _ := sat.EnumerateModelsOn(inc, prob.Formula, project, limit)
	root.Int("models", int64(len(models)))
	out := make([]*spec.Full, 0, len(models))
	for _, model := range models {
		full, _, err := e.build(g, prob.Selected(model))
		if err != nil {
			return nil, err
		}
		out = append(out, full)
	}
	return out, nil
}
