package sat

// Observe wraps an incremental session so that fn sees every
// SolveAssuming call together with its Result — assumptions, status,
// and the per-call effort Stats. Telemetry uses it to emit one
// "sat.solve" event per re-solve of the enumeration and minimization
// loops without the solver knowing anything about tracing. A nil fn
// returns the session unwrapped.
func Observe(in IncrementalSolver, fn func(assumps []Lit, res Result)) IncrementalSolver {
	if fn == nil {
		return in
	}
	return &observed{in: in, fn: fn}
}

type observed struct {
	in IncrementalSolver
	fn func(assumps []Lit, res Result)
}

func (o *observed) AddClause(c Clause) bool { return o.in.AddClause(c) }

func (o *observed) SolveAssuming(assumps []Lit) Result {
	res := o.in.SolveAssuming(assumps)
	o.fn(assumps, res)
	return res
}
