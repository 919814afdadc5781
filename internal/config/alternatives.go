package config

import (
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
// Like every entry point, Alternatives reports an unsatisfiable partial
// specification as UnsatError and checks each specification it returns
// with CheckSpec.
//
// A limit ≤ 0 enumerates everything; the solution count is bounded by
// the product of the disjunction widths, so bound it for large stacks.
func (e *Engine) Alternatives(partial *spec.Partial, limit int) ([]*spec.Full, error) {
	fulls, _, err := e.configure("alternatives", partial, func(r *run) [][]bool { return r.enumerate(limit) })
	return fulls, err
}

// enumerate extends the first model to up to limit models, blocking
// each on the instance variables 1..n only (the ladder encoding's
// auxiliaries must not multiply solutions).
func (r *run) enumerate(limit int) [][]bool {
	models := [][]bool{r.model}
	for limit <= 0 || len(models) < limit {
		last := models[len(models)-1]
		block := make(sat.Clause, 0, r.g.Len())
		for v := 1; v <= r.g.Len(); v++ {
			if last[v] {
				block = append(block, sat.Lit(-v))
			} else {
				block = append(block, sat.Lit(v))
			}
		}
		if !r.inc.AddClause(block) {
			break // the blocking clause closed the space at level 0
		}
		res := r.inc.SolveAssuming(nil)
		if res.Status != sat.Sat {
			break
		}
		models = append(models, res.Model)
	}
	return models
}
