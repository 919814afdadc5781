package config

import (
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
	fulls, _, err := e.configure("minimal", partial, (*run).minimize)
	if err != nil {
		return nil, err
	}
	return fulls[0], nil
}

// minimize sheds every selected non-spec instance it can, in graph
// order, starting from the first model.
func (r *run) minimize() [][]bool {
	model := r.model
	for _, n := range r.g.Nodes() {
		v := r.prob.VarOf[n.ID]
		if n.FromSpec || !model[v] {
			continue
		}
		trial := r.inc.SolveAssuming([]sat.Lit{sat.Lit(-v)})
		if trial.Status == sat.Sat {
			// Sheddable: commit the exclusion so later trials build on it.
			r.inc.AddClause(sat.Clause{sat.Lit(-v)})
			model = trial.Model
		} else {
			// Pin it in so later trials cannot flip it back.
			r.inc.AddClause(sat.Clause{sat.Lit(v)})
		}
	}
	return [][]bool{model}
}
