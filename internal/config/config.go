// Package config implements Engage's configuration engine (§4 of the
// paper): it takes a collection of resource types and a partial
// installation specification and produces a full installation
// specification, by (1) generating the dependency hypergraph,
// (2) generating Boolean constraints and solving them, and
// (3) propagating configuration options along the application stack in
// topological order of dependencies.
package config

import (
	"fmt"
	"sync"
	"time"

	"engage/internal/constraint"
	"engage/internal/hypergraph"
	"engage/internal/lint"
	"engage/internal/resource"
	"engage/internal/sat"
	"engage/internal/spec"
	"engage/internal/telemetry"
	"engage/internal/typecheck"
)

// Engine is the configuration engine. The zero Solver/Encoding default
// to the CDCL solver with the paper's pairwise exactly-one encoding.
// Every entry point solves on one incremental session. Solvers
// implementing sat.IncrementalSource (CDCL does) keep it warm across
// the re-solves of Alternatives, ConfigureMinimal and Session; other
// solvers work through the cold compatibility adapter.
type Engine struct {
	Registry *resource.Registry
	Solver   sat.Solver
	Encoding constraint.Encoding
	// Tracer, when non-nil, receives one "config" root span per entry
	// point call, with the entry point as its "mode" attribute and one
	// child per pipeline stage (config.graph / config.encode /
	// config.solve / config.build), plus one "sat.solve" event per
	// solve on the call's session. For these stages wall time is
	// authoritative — nothing advances the virtual clock during
	// configuration.
	Tracer *telemetry.Tracer
	// Metrics, when non-nil, absorbs Stats (see Stats.Publish) plus
	// per-solve solver effort counters.
	Metrics *telemetry.Registry

	// lastUnsat memoizes the lint explanation of the most recent
	// unsatisfiable partial specification, keyed by pointer identity:
	// retry loops (deployment self-healing re-runs Configure on the
	// same *spec.Partial) get the cached explanation instead of paying
	// the MUS derivation again.
	mu        sync.Mutex
	lastUnsat struct {
		partial *spec.Partial
		expl    *lint.UnsatExplanation
	}
}

// New returns an engine over a registry with default solver settings.
func New(reg *resource.Registry) *Engine {
	return &Engine{Registry: reg, Solver: sat.NewCDCL()}
}

// Stats reports the work done by a Configure call.
type Stats struct {
	GraphNodes int
	GraphEdges int
	Vars       int
	Clauses    int
	// Solver is the effort of the session's first solve, as the
	// session reports it per call: it leaves out the root-level
	// propagations done while the clauses are loaded.
	Solver sat.Stats
	// Per-stage wall clock: hypergraph generation, constraint
	// encoding, SAT solving, and build+propagate+check. PropagateWall
	// is the port propagation slice of BuildWall, broken out so the
	// back-half benches can report it separately.
	GraphWall     time.Duration
	EncodeWall    time.Duration
	SolveWall     time.Duration
	BuildWall     time.Duration
	PropagateWall time.Duration
}

// UnsatError is returned when no full installation specification extends
// the partial specification (Theorem 1's "iff" in the negative).
// Explanation, when non-nil, carries the diagnostics engine's minimal
// unsatisfiable subset naming the conflicting instances and resources.
type UnsatError struct {
	Explanation *lint.UnsatExplanation
}

func (e UnsatError) Error() string {
	const msg = "config: no full installation specification extends the partial specification (constraints unsatisfiable)"
	if e.Explanation == nil {
		return msg
	}
	return msg + "\n" + e.Explanation.Story()
}

// unsatError builds the UnsatError for a partial specification whose
// constraints came back unsatisfiable, deriving (or recalling) the
// minimal-core explanation. The derivation runs once per partial: a
// retry on the same *spec.Partial reuses the cached explanation.
func (e *Engine) unsatError(g *hypergraph.Graph, parent *telemetry.Span, partial *spec.Partial) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.lastUnsat.partial == partial {
		return UnsatError{Explanation: e.lastUnsat.expl}
	}
	sp := parent.Child("config.lint")
	expl := lint.ExplainGraphUnsat(g, lint.Options{Encoding: e.Encoding, Solver: e.Solver})
	if expl != nil && len(expl.Core) == 0 {
		// A degenerate session (e.g. a stub solver with no real core)
		// explains nothing; drop it rather than tell an empty story.
		expl = nil
	}
	if expl != nil {
		sp.Int("mus", int64(len(expl.Core))).
			Int("rawCore", int64(expl.RawCoreSize)).
			Int("solves", int64(expl.Solves))
	}
	sp.End()
	e.lastUnsat.partial = partial
	e.lastUnsat.expl = expl
	return UnsatError{Explanation: expl}
}

// Configure computes a full installation specification extending the
// partial specification, or an error.
func (e *Engine) Configure(partial *spec.Partial) (*spec.Full, error) {
	full, _, err := e.ConfigureStats(partial)
	return full, err
}

// ConfigureStats is Configure with effort statistics. It is the session
// path of ConfigureSessionStats with the session dropped.
func (e *Engine) ConfigureStats(partial *spec.Partial) (*spec.Full, Stats, error) {
	fulls, r, err := e.configure("configure", partial, nil)
	if err != nil {
		return nil, r.st, err
	}
	return fulls[0], r.st, nil
}

// run is what the front half hands to an entry point's own re-solves.
type run struct {
	g    *hypergraph.Graph
	prob *constraint.Problem
	// inc is the incremental session, observed so that every solve on
	// it is traced and counted once.
	inc   sat.IncrementalSolver
	model []bool // the first solve's model
	st    Stats
}

// configure is the one pipeline behind every entry point (§4), traced
// as one "config" root span with the entry point as its "mode".
//
// The front half runs GraphGen and encode under config.graph and
// config.encode, then opens the one incremental session and solves it
// under config.solve. The first solve is classified as Sat, Unsat
// (UnsatError with the MUS story) or gave up. On Sat, more (when
// non-nil) runs the entry point's own re-solves on r.inc, still under
// config.solve, and returns the models to keep; by default the first
// model is kept.
//
// The finish step then builds and statically checks each kept model
// under config.build. The run's Stats are published to Metrics; the
// returned run is never nil.
func (e *Engine) configure(mode string, partial *spec.Partial, more func(*run) [][]bool) (fulls []*spec.Full, r *run, err error) {
	r = &run{}
	st := &r.st
	root := e.Tracer.Span("config").Str("mode", mode)
	defer func() {
		if err != nil {
			root.Str("error", err.Error())
		}
		root.Int("graph_nodes", int64(st.GraphNodes)).
			Int("graph_edges", int64(st.GraphEdges)).
			Int("vars", int64(st.Vars)).
			Int("clauses", int64(st.Clauses)).
			End()
		st.Publish(e.Metrics)
	}()

	sp := root.Child("config.graph")
	t0 := time.Now()
	r.g, err = hypergraph.Generate(e.Registry, partial)
	st.GraphWall = time.Since(t0)
	if err != nil {
		sp.End()
		return nil, r, err
	}
	st.GraphNodes, st.GraphEdges = r.g.Len(), len(r.g.Edges)
	sp.Int("nodes", int64(st.GraphNodes)).Int("edges", int64(st.GraphEdges)).End()

	sp = root.Child("config.encode")
	t0 = time.Now()
	r.prob = constraint.Encode(r.g, e.Encoding)
	st.EncodeWall = time.Since(t0)
	st.Vars, st.Clauses = r.prob.Formula.NumVars, len(r.prob.Formula.Clauses)
	sp.Int("vars", int64(st.Vars)).Int("clauses", int64(st.Clauses)).End()

	solver := e.Solver
	if solver == nil {
		solver = sat.NewCDCL()
	}
	sp = root.Child("config.solve").Str("solver", solver.Name())
	t0 = time.Now()
	r.inc = sat.Observe(sat.StartIncremental(solver, r.prob.Formula), e.observeSolves(sp))
	res := r.inc.SolveAssuming(nil)
	st.Solver = res.Stats
	sp.Str("status", res.Status.String()).
		Int("decisions", res.Stats.Decisions).
		Int("propagations", res.Stats.Propagations).
		Int("conflicts", res.Stats.Conflicts).
		Int("learned", res.Stats.Learned).
		Int("restarts", res.Stats.Restarts)
	r.model = res.Model
	models := [][]bool{r.model}
	if res.Status == sat.Sat && more != nil {
		models = more(r)
	}
	st.SolveWall = time.Since(t0)
	sp.End()
	switch res.Status {
	case sat.Sat:
	case sat.Unsat:
		return nil, r, e.unsatError(r.g, root, partial)
	default:
		return nil, r, fmt.Errorf("config: solver %q gave up", solver.Name())
	}

	sp = root.Child("config.build")
	defer sp.End()
	t0 = time.Now()
	instances := 0
	for _, model := range models {
		full, prop, err := e.finish(r.g, r.prob, model)
		st.PropagateWall += prop
		st.BuildWall = time.Since(t0)
		if err != nil {
			return nil, r, err
		}
		fulls = append(fulls, full)
		instances += len(full.Instances)
	}
	sp.Int("models", int64(len(fulls))).Int("instances", int64(instances))
	return fulls, r, nil
}

// Publish copies the per-call stats into a metrics registry: stage
// walls as histograms (one observation per configuration call), graph
// and formula sizes as gauges. A nil registry is ignored, so Stats
// remains usable standalone. Solver effort is not published here: the
// engine counts it per solve as the solve happens (sat.solves,
// sat.decisions, …), so every solve is counted exactly once.
func (st Stats) Publish(r *telemetry.Registry) {
	if r == nil {
		return
	}
	r.Gauge("config.graph_nodes").Set(int64(st.GraphNodes))
	r.Gauge("config.graph_edges").Set(int64(st.GraphEdges))
	r.Gauge("config.vars").Set(int64(st.Vars))
	r.Gauge("config.clauses").Set(int64(st.Clauses))
	r.Histogram("config.graph_wall_ns").Observe(int64(st.GraphWall))
	r.Histogram("config.encode_wall_ns").Observe(int64(st.EncodeWall))
	r.Histogram("config.solve_wall_ns").Observe(int64(st.SolveWall))
	r.Histogram("config.build_wall_ns").Observe(int64(st.BuildWall))
	r.Histogram("config.propagate_wall_ns").Observe(int64(st.PropagateWall))
}

// observeSolves returns a sat.Observe callback emitting one "sat.solve"
// event per SolveAssuming on sp and counting its solver effort, or nil
// when telemetry is disabled (Observe then returns the session
// unwrapped, keeping the hot path free).
func (e *Engine) observeSolves(sp *telemetry.Span) func([]sat.Lit, sat.Result) {
	if e.Tracer == nil && e.Metrics == nil {
		return nil
	}
	call := int64(0)
	return func(assumps []sat.Lit, res sat.Result) {
		call++
		sp.Event("sat.solve").
			Int("call", call).
			Int("assumptions", int64(len(assumps))).
			Str("status", res.Status.String()).
			Int("decisions", res.Stats.Decisions).
			Int("propagations", res.Stats.Propagations).
			Int("conflicts", res.Stats.Conflicts).
			Int("learned", res.Stats.Learned).
			Int("restarts", res.Stats.Restarts).
			Emit()
		if e.Metrics != nil {
			e.Metrics.Counter("sat.solves").Inc()
			e.Metrics.Counter("sat.decisions").Add(res.Stats.Decisions)
			e.Metrics.Counter("sat.propagations").Add(res.Stats.Propagations)
			e.Metrics.Counter("sat.conflicts").Add(res.Stats.Conflicts)
			e.Metrics.Counter("sat.learned").Add(res.Stats.Learned)
			e.Metrics.Counter("sat.restarts").Add(res.Stats.Restarts)
		}
	}
}

// finish is the one finish step of every entry point: assemble the
// full specification from a model's selection, propagate port values,
// then check the result statically. It also returns the wall time of
// port propagation.
func (e *Engine) finish(g *hypergraph.Graph, prob *constraint.Problem, model []bool) (*spec.Full, time.Duration, error) {
	selected := prob.Selected(model)
	full := &spec.Full{}
	byID := make(map[string]*spec.Instance, len(g.Order))
	for _, n := range g.Nodes() {
		if selected[n.ID] {
			inst := instanceFromNode(n)
			full.Instances = append(full.Instances, inst)
			byID[inst.ID] = inst
		}
	}
	for _, edge := range g.Edges {
		src := byID[edge.Source]
		if src == nil {
			continue // source not deployed
		}
		target, err := constraint.ChosenTarget(edge, selected)
		if err != nil {
			return nil, 0, err
		}
		src.Deps = append(src.Deps, spec.DepLink{
			Class:          edge.Class,
			Target:         target,
			PortMap:        edge.PortMap,
			ReversePortMap: edge.ReversePortMap,
		})
	}

	t0 := time.Now()
	err := e.propagate(full, byID)
	wall := time.Since(t0)
	if err != nil {
		return nil, wall, err
	}
	if err := typecheck.CheckSpec(e.Registry, full); err != nil {
		return nil, wall, fmt.Errorf("config: generated specification fails static checking: %w", err)
	}
	return full, wall, nil
}

// instanceFromNode materializes one selected graph node as a spec
// instance.
func instanceFromNode(n *hypergraph.Node) *spec.Instance {
	inst := &spec.Instance{
		ID:      n.ID,
		Key:     n.Key,
		Machine: n.Machine,
		Inside:  n.Inside,
		Config:  make(map[string]resource.Value, len(n.Config)),
		Input:   make(map[string]resource.Value),
		Output:  make(map[string]resource.Value),
	}
	for k, v := range n.Config {
		inst.Config[k] = v
	}
	return inst
}

// propagate computes port values: static ports first (they are known at
// instantiation time and may flow in reverse), then a linear pass in
// topological order filling input ports from upstream outputs, config
// ports from overrides or defaults, and output ports from their
// definitions (§4, final paragraph).
func (e *Engine) propagate(full *spec.Full, byID map[string]*spec.Instance) error {
	// Pass 0: static config and output ports.
	for _, inst := range full.Instances {
		if err := e.propagateStatic(inst); err != nil {
			return err
		}
	}

	if err := e.propagateReverse(full, byID); err != nil {
		return err
	}

	// Main pass in dependency order.
	order, err := full.TopoOrder()
	if err != nil {
		return err
	}
	for _, inst := range order {
		if err := e.propagateNode(inst, byID); err != nil {
			return err
		}
	}
	return nil
}

// propagateStatic fills one instance's static config and output ports.
func (e *Engine) propagateStatic(inst *spec.Instance) error {
	t := e.Registry.MustLookup(inst.Key)
	for _, p := range t.Config {
		if !p.Static {
			continue
		}
		if _, overridden := inst.Config[p.Name]; overridden {
			continue
		}
		if p.Def == nil {
			return fmt.Errorf("config: instance %q: static config port %q has no value", inst.ID, p.Name)
		}
		v, err := p.Def.Eval(resource.MapScope{})
		if err != nil {
			return fmt.Errorf("config: instance %q: static config port %q: %v", inst.ID, p.Name, err)
		}
		inst.Config[p.Name] = v
	}
	for _, p := range t.Output {
		if !p.Static {
			continue
		}
		v, err := p.Def.Eval(resource.MapScope{Configs: inst.Config})
		if err != nil {
			return fmt.Errorf("config: instance %q: static output port %q: %v", inst.ID, p.Name, err)
		}
		inst.Output[p.Name] = v
	}
	return nil
}

// propagateReverse applies reverse flows: static outputs of dependents
// feed dependee inputs.
func (e *Engine) propagateReverse(full *spec.Full, byID map[string]*spec.Instance) error {
	for _, inst := range full.Instances {
		for _, l := range inst.Deps {
			for outPort, inPort := range l.ReversePortMap {
				v, ok := inst.Output[outPort]
				if !ok {
					return fmt.Errorf("config: instance %q: reverse-mapped output %q not computed (must be static)", inst.ID, outPort)
				}
				target := byID[l.Target]
				if target == nil {
					return fmt.Errorf("config: instance %q: reverse map targets unknown instance %q", inst.ID, l.Target)
				}
				target.Input[inPort] = v
			}
		}
	}
	return nil
}

// propagateNode runs the main propagation pass for one instance whose
// dependencies have all been propagated: inputs from upstream outputs,
// config ports from overrides or defaults, output ports from their
// definitions.
func (e *Engine) propagateNode(inst *spec.Instance, byID map[string]*spec.Instance) error {
	t := e.Registry.MustLookup(inst.Key)

	// Inputs from upstream outputs.
	for _, l := range inst.Deps {
		target := byID[l.Target]
		for outPort, inPort := range l.PortMap {
			v, ok := target.Output[outPort]
			if !ok {
				return fmt.Errorf("config: instance %q: upstream %q has no output %q", inst.ID, l.Target, outPort)
			}
			inst.Input[inPort] = v
		}
	}

	scope := resource.MapScope{Inputs: inst.Input, Configs: inst.Config}

	// Config ports: override > default expression.
	for _, p := range t.Config {
		if _, done := inst.Config[p.Name]; done {
			continue
		}
		if p.Def == nil {
			return fmt.Errorf("config: instance %q: config port %q has no value and no default", inst.ID, p.Name)
		}
		v, err := p.Def.Eval(scope)
		if err != nil {
			return fmt.Errorf("config: instance %q: config port %q: %v", inst.ID, p.Name, err)
		}
		if !v.Type().AssignableTo(p.Type) {
			return fmt.Errorf("config: instance %q: config port %q: %s not assignable to %s",
				inst.ID, p.Name, v.Type(), p.Type)
		}
		inst.Config[p.Name] = v
	}

	// Output ports.
	for _, p := range t.Output {
		if _, done := inst.Output[p.Name]; done {
			continue // static, already computed
		}
		v, err := p.Def.Eval(scope)
		if err != nil {
			return fmt.Errorf("config: instance %q: output port %q: %v", inst.ID, p.Name, err)
		}
		inst.Output[p.Name] = v
	}
	return nil
}
