package config

// This file keeps a configuration's solver session alive after the
// answer is built. Reconciliation (internal/stack) needs exactly that:
// when part of a deployed fleet is damaged, the minimal-delta replan
// pins the healthy instances as assumptions and re-solves on the warm
// session — learned clauses, activity, and saved phases carry over, so
// the re-solve touches only the damaged cone of the search space
// instead of reproving the whole configuration from scratch.

import (
	"fmt"

	"engage/internal/constraint"
	"engage/internal/hypergraph"
	"engage/internal/sat"
	"engage/internal/spec"
)

// Session is the warm state retained by ConfigureSession: the
// dependency hypergraph, the encoded constraint problem, the
// incremental solver session, and the model the returned specification
// was built from.
type Session struct {
	Graph   *hypergraph.Graph
	Problem *constraint.Problem
	Inc     sat.IncrementalSolver
	Model   []bool
}

// ConfigureSession is Configure, but the solve runs on an incremental
// session that is returned alongside the full specification for later
// warm re-solves (see Session.SolvePinned).
func (e *Engine) ConfigureSession(partial *spec.Partial) (*spec.Full, *Session, error) {
	full, sess, _, err := e.ConfigureSessionStats(partial)
	return full, sess, err
}

// ConfigureSessionStats is ConfigureSession with the initial (cold)
// solve's effort reported, so callers keeping sessions warm — the
// control plane's session pool — can compare it against later per-call
// deltas from Session.SolvePinned / Session.Resolve.
func (e *Engine) ConfigureSessionStats(partial *spec.Partial) (*spec.Full, *Session, sat.Stats, error) {
	g, err := hypergraph.Generate(e.Registry, partial)
	if err != nil {
		return nil, nil, sat.Stats{}, err
	}
	prob := constraint.Encode(g, e.Encoding)
	solver := e.Solver
	if solver == nil {
		solver = sat.NewCDCL()
	}

	root := e.Tracer.Span("config.session")
	defer root.End()
	inc := sat.Observe(sat.StartIncremental(solver, prob.Formula), e.observeSolves(root))
	res := inc.SolveAssuming(nil)
	switch res.Status {
	case sat.Sat:
	case sat.Unsat:
		return nil, nil, res.Stats, e.unsatError(g, root, partial)
	default:
		return nil, nil, res.Stats, fmt.Errorf("config: solver %q gave up", solver.Name())
	}

	full, _, err := e.build(g, prob.Selected(res.Model))
	if err == nil {
		err = e.check(full)
	}
	if err != nil {
		return nil, nil, res.Stats, err
	}
	root.Int("instances", int64(len(full.Instances)))
	return full, &Session{Graph: g, Problem: prob, Inc: inc, Model: res.Model}, res.Stats, nil
}

// Resolve answers a repeat of the session's original configuration
// request on the warm path. The session's clause set has not grown
// since the cold solve proved Model (pooled sessions only ever Resolve
// or SolvePinned, and assumptions are temporary), so that model is
// still a model: the warm path pays zero solver effort — no decisions,
// no propagations — and rebuilds the full specification from the
// retained model. The returned zero-valued stats are the per-call
// effort delta; compared against the cold solve's real search they are
// what the control plane's load test asserts ("warm requests do
// strictly fewer propagations"). If the model was discarded (Model
// nil), Resolve re-proves it with one warm incremental solve first.
func (s *Session) Resolve(e *Engine, partial *spec.Partial) (*spec.Full, sat.Stats, error) {
	var st sat.Stats
	if s.Model == nil {
		res := s.Inc.SolveAssuming(nil)
		if res.Status != sat.Sat {
			return nil, res.Stats, fmt.Errorf("config: warm session re-solve came back %s", res.Status)
		}
		s.Model = res.Model
		st = res.Stats
	}
	full, _, err := e.build(s.Graph, s.Problem.Selected(s.Model))
	if err == nil {
		err = e.check(full)
	}
	if err != nil {
		return nil, st, err
	}
	return full, st, nil
}

// SolvePinned re-solves the session's formula with the given instance
// IDs assumed selected (pinned true), returning the solver's result —
// per-call effort deltas included. A Sat result proves the pinned
// configuration still extends to a full one; the warm session makes
// the proof cheap when the pins cover most of the fleet (only the
// unpinned cone is genuinely re-searched). Unknown IDs are an error so
// a stale desired-state record cannot silently pin nothing.
func (s *Session) SolvePinned(ids []string) (sat.Result, error) {
	assumps := make([]sat.Lit, 0, len(ids))
	for _, id := range ids {
		v, ok := s.Problem.VarOf[id]
		if !ok {
			return sat.Result{}, fmt.Errorf("config: pinned instance %q is not in the configuration problem", id)
		}
		assumps = append(assumps, sat.Lit(v))
	}
	res := s.Inc.SolveAssuming(assumps)
	if res.Status == sat.Sat {
		s.Model = res.Model
	}
	return res, nil
}

// Selected maps a model back to the selected instance IDs (the
// session-level view of Problem.Selected).
func (s *Session) Selected(model []bool) map[string]bool { return s.Problem.Selected(model) }
