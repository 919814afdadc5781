package main

// The traced run. Every per-layer call of the benchmark lives in this
// file: it times the program's exported functions one layer at a time,
// on the fleet of the seed and on the serve request bodies, wraps each
// in a telemetry span (kept in memory, written when the run ends, in
// the format `engage trace validate` reads), and scrapes the server's
// own counters around a short session of each serve traffic mix.
//
// The probe is the same for every workload, so every per-layer metric
// is measured on every traced run; layerMetrics says which workload and
// end-to-end metric each one explains.

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"engage/internal/certify"
	"engage/internal/config"
	"engage/internal/constraint"
	"engage/internal/deploy"
	"engage/internal/hypergraph"
	"engage/internal/library"
	"engage/internal/lint"
	"engage/internal/machine"
	"engage/internal/pkgmgr"
	"engage/internal/resource"
	"engage/internal/sat"
	"engage/internal/spec"
	"engage/internal/stack"
	"engage/internal/telemetry"
	"engage/internal/typecheck"
	"engage/internal/workload"
)

// layerMetric documents one per-layer metric: the module it measures
// and the end-to-end metric, on the named workload, it should move.
type layerMetric struct {
	name, unit, better string
	module             string
	moves              string // "<end-to-end metric> on <workload>"
}

// layerMetrics is the per-layer list of BENCHMARK.json, with the
// documentation that file has no room for.
var layerMetrics = func() []layerMetric {
	list := []layerMetric{
		{"typecheck.types_ms", "ms", "lower", "typecheck", "setup_s on fleet"},
		{"hypergraph.ms", "ms", "lower", "hypergraph", "configure_s on fleet"},
		{"hypergraph.nodes", "count", "lower", "hypergraph", "configure_s on fleet"},
		{"hypergraph.edges", "count", "lower", "hypergraph", "configure_s on fleet"},
		{"hypergraph.slope", "ratio", "lower", "hypergraph", "configure_s on fleet"},
		{"constraint.ms", "ms", "lower", "constraint", "configure_s on fleet"},
		{"constraint.clauses", "count", "lower", "constraint", "configure_s on fleet"},
		{"sat.ms", "ms", "lower", "sat", "configure_s on fleet"},
		{"sat.propagations", "count", "lower", "sat", "configure_s on fleet"},
		{"sat.conflicts", "count", "lower", "sat", "configure_s on fleet"},
		{"config.configure_ms", "ms", "lower", "config", "configure_s on fleet"},
		{"config.build_ms", "ms", "lower", "config", "configure_s on fleet"},
		{"config.alloc_mb", "MB", "lower", "config", "rss_mb on fleet"},
		{"typecheck.checkspec_ms", "ms", "lower", "typecheck", "configure_s on fleet"},
		{"certify.checkplan_ms", "ms", "lower", "certify", "latency_p50_ms on fleet"},
		{"deploy.ms", "ms", "lower", "deploy", "latency_p50_ms on fleet"},
		{"trace.overhead", "ratio", "lower", "benchmark", "none: traced fleet op over untraced"},
		{"bench.op_self_ms", "ms", "lower", "benchmark", "none: fleet op time outside the program's calls"},
		{"rdl.load_ms", "ms", "lower", "rdl", "setup_s on serve-warm and serve-mixed"},
		{"spec.decode_us", "us", "lower", "spec", "cpu_ms_per_req and latency_p50_ms on serve-warm"},
		{"spec.key_us", "us", "lower", "spec", "cpu_ms_per_req and latency_p50_ms on serve-warm"},
		{"config.resolve_us", "us", "lower", "config", "cpu_ms_per_req and latency_p50_ms on serve-warm"},
		{"spec.linecount_us", "us", "lower", "spec", "cpu_ms_per_req and latency_p50_ms on serve-warm"},
		{"spec.marshal_us", "us", "lower", "api", "cpu_ms_per_req and latency_p50_ms on serve-warm"},
		{"config.cold_ms", "ms", "lower", "config", "cpu_ms_per_req and mixed.client.p90_ms on serve-mixed"},
		{"lint.mus_ms", "ms", "lower", "lint", "cpu_ms_per_req and mixed.client.p90_ms on serve-mixed"},
		{"lint.mus_size", "count", "lower", "lint", "cpu_ms_per_req and mixed.client.p90_ms on serve-mixed"},
		{"stack.apply_ms", "ms", "lower", "stack", "cpu_ms_per_req and mixed.client.p90_ms on serve-mixed"},
	}
	for _, t := range []traffic{warmTraffic, mixedTraffic} {
		w := "on serve-" + t.name
		p := t.name + "."
		list = append(list,
			layerMetric{p + "api.configure.server_ms", "ms", "lower", "api", "latency_p50_ms " + w},
			layerMetric{p + "api.outside_ms", "ms", "lower", "api", "latency_p50_ms " + w},
			layerMetric{p + "api.pool.hit_ratio", "ratio", "higher", "api", "cpu_ms_per_req " + w},
			layerMetric{p + "api.pool.keys", "count", "lower", "api", "rss_mb " + w},
			layerMetric{p + "api.pool.idle", "count", "lower", "api", "rss_mb " + w},
			layerMetric{p + "sat.solves_per_req", "count", "lower", "sat", "cpu_ms_per_req " + w},
			layerMetric{p + "client.p90_ms", "ms", "lower", "api", "none: the tail latency " + w + ", kept out of the end-to-end set because it does not repeat on a shared host"},
			layerMetric{p + "client.p99_ms", "ms", "lower", "benchmark", "none: health, p99 " + w},
			layerMetric{p + "client.samples", "count", "higher", "benchmark", "none: health, latency samples " + w},
			layerMetric{p + "client.late_ms", "ms", "lower", "benchmark", "none: health, p99 send lateness " + w},
			layerMetric{p + "client.cpu_ms_per_req", "ms", "lower", "benchmark", "none: health, client CPU " + w},
		)
	}
	return append(list,
		layerMetric{"mixed.api.deploy.server_ms", "ms", "lower", "api", "cpu_ms_per_req and mixed.client.p90_ms on serve-mixed"},
		layerMetric{"mixed.api.stack_post.server_ms", "ms", "lower", "api", "cpu_ms_per_req and mixed.client.p90_ms on serve-mixed"},
	)
}()

// probe is the state of one traced run.
type probe struct {
	env  *runEnv
	root *telemetry.Span
	m    map[string]float64
	res  *result
}

// timed runs f n times under one span named name and returns the
// median wall time of a call.
func (p *probe) timed(name string, n int, f func() error) (time.Duration, error) {
	sp := p.root.Child(name)
	defer sp.End()
	var ds []float64
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if err := f(); err != nil {
			sp.Str("error", err.Error())
			return 0, fmt.Errorf("%s: %v", name, err)
		}
		ds = append(ds, float64(time.Since(t0)))
	}
	med := time.Duration(median(ds))
	sp.Int("calls", int64(n)).Dur("median", med)
	return med, nil
}

// check counts one checked answer of the traced run.
func (p *probe) check(err error) {
	p.res.attempted++
	if err != nil {
		p.res.fail(err)
	}
}

// Repetitions per layer: few for the fleet layers, which take up to a
// second a call, many for the microsecond serve layers.
const (
	fleetReps = 3
	microReps = 200
	coldReps  = 20
)

func runTraced(env *runEnv) (*result, error) {
	var buf bytes.Buffer
	tr := telemetry.New(&buf, nil)
	root := tr.Span("bench.traced").Str("workload", env.workload).Int("seed", env.seed)
	p := &probe{env: env, root: root, m: map[string]float64{}, res: &result{}}
	steps := []func() error{p.fleetLayers, p.ladder, p.serveLayers}
	for _, t := range []traffic{warmTraffic, mixedTraffic} {
		steps = append(steps, func() error { return p.scraped(t) })
	}
	for _, step := range steps {
		if err := step(); err != nil {
			root.End()
			return nil, err
		}
	}
	root.End()
	if err := tr.Err(); err != nil {
		return nil, err
	}

	path := filepath.Join(env.outDir, fmt.Sprintf("%s-seed%d.trace.jsonl", env.workload, env.seed))
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		return nil, err
	}
	t, err := telemetry.ReadTrace(bytes.NewReader(buf.Bytes()))
	if err != nil {
		return nil, fmt.Errorf("trace %s does not validate: %v", path, err)
	}
	p.res.note("trace", path)
	var self []float64
	for _, op := range t.Spans("bench.fleet_op") {
		var kids []interval
		for _, c := range t.ChildSpans(op.ID) {
			kids = append(kids, interval{*c.VStart, *c.VEnd})
		}
		self = append(self, ms(selfTime(interval{*op.VStart, *op.VEnd}, kids)))
	}
	p.m["bench.op_self_ms"] = median(self)
	p.res.metrics = p.m
	return p.res, nil
}

// fleetLayers times each pipeline layer on the run's first fleet.
func (p *probe) fleetLayers() error {
	fleets, err := makeFleets(p.env.seed)
	if err != nil {
		return err
	}
	want, err := p.env.fleetAnswers(fleets)
	if err != nil {
		return err
	}
	f := fleets[0]
	m := p.m
	// One untimed op first, as in the untraced run, so the heap has
	// grown to its working size before any layer is timed.
	if _, err := runFleetOp(f, &want[0]); err != nil {
		return err
	}

	d, err := p.timed("typecheck.CheckTypes", fleetReps, func() error { return typecheck.CheckTypes(f.reg) })
	if err != nil {
		return err
	}
	m["typecheck.types_ms"] = ms(d)

	var g *hypergraph.Graph
	dGraph, err := p.timed("hypergraph.Generate", fleetReps, func() (err error) {
		g, err = hypergraph.Generate(f.reg, f.partial)
		return err
	})
	if err != nil {
		return err
	}
	m["hypergraph.ms"], m["hypergraph.nodes"], m["hypergraph.edges"] = ms(dGraph), float64(g.Len()), float64(len(g.Edges))

	enc := config.New(f.reg).Encoding
	var prob *constraint.Problem
	dEnc, err := p.timed("constraint.Encode", fleetReps, func() error {
		prob = constraint.Encode(g, enc)
		return nil
	})
	if err != nil {
		return err
	}
	m["constraint.ms"], m["constraint.clauses"] = ms(dEnc), float64(len(prob.Formula.Clauses))

	var sr sat.Result
	dSolve, err := p.timed("sat.CDCL.Solve", fleetReps, func() error {
		if sr = sat.NewCDCL().Solve(prob.Formula); sr.Status != sat.Sat {
			return fmt.Errorf("fleet %d solved %s", f.seed, sr.Status)
		}
		return nil
	})
	if err != nil {
		return err
	}
	m["sat.ms"], m["sat.propagations"], m["sat.conflicts"] = ms(dSolve), float64(sr.Stats.Propagations), float64(sr.Stats.Conflicts)

	// config.build_ms is the rest of Configure: its wall time minus the
	// graph, encode and solve stages the engine times in the same call.
	var full *spec.Full
	var allocs, builds []float64
	dConf, err := p.timed("config.ConfigureStats", fleetReps, func() (err error) {
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		t0 := time.Now()
		var st config.Stats
		full, st, err = config.New(f.reg).ConfigureStats(f.partial)
		wall := time.Since(t0)
		runtime.ReadMemStats(&ms1)
		allocs = append(allocs, float64(ms1.TotalAlloc-ms0.TotalAlloc)/(1<<20))
		builds = append(builds, ms(wall-st.GraphWall-st.EncodeWall-st.SolveWall))
		return err
	})
	if err != nil {
		return err
	}
	m["config.configure_ms"], m["config.build_ms"], m["config.alloc_mb"] = ms(dConf), median(builds), median(allocs)

	d, err = p.timed("typecheck.CheckSpec", fleetReps, func() error { return typecheck.CheckSpec(f.reg, full) })
	if err != nil {
		return err
	}
	m["typecheck.checkspec_ms"] = ms(d)

	var diags []lint.Diagnostic
	d, err = p.timed("certify.CheckPlan", fleetReps, func() error {
		diags = certify.CheckPlan(f.reg, f.partial, full)
		return nil
	})
	if err != nil {
		return err
	}
	m["certify.checkplan_ms"] = ms(d)
	p.check(checkFleetAnswer(f.seed, full, diags, &want[0]))

	d, err = p.timed("deploy.DeployConcurrent", fleetReps, func() error {
		dep, err := deploy.New(full, fleetDeployOptions(f))
		if err != nil {
			return err
		}
		return dep.DeployConcurrent()
	})
	if err != nil {
		return err
	}
	m["deploy.ms"] = ms(d)

	// The same op with and without spans around its three calls.
	var plain, traced []float64
	for i := 0; i < fleetReps; i++ {
		op, err := runFleetOp(f, &want[0])
		p.check(err)
		plain = append(plain, float64(op.total()))
		t0 := time.Now()
		p.check(p.tracedFleetOp(f, &want[0]))
		traced = append(traced, float64(time.Since(t0)))
	}
	m["trace.overhead"] = median(traced) / median(plain)
	return nil
}

// tracedFleetOp is runFleetOp with a span around each call.
func (p *probe) tracedFleetOp(f fleetInput, want *int) error {
	op := p.root.Child("bench.fleet_op")
	defer op.End()
	sp := op.Child("config.Configure")
	full, err := config.New(f.reg).Configure(f.partial)
	sp.End()
	if err != nil {
		return err
	}
	sp = op.Child("certify.CheckPlan")
	diags := certify.CheckPlan(f.reg, f.partial, full)
	sp.End()
	sp = op.Child("deploy.DeployConcurrent")
	d, err := deploy.New(full, fleetDeployOptions(f))
	if err == nil {
		err = d.DeployConcurrent()
	}
	sp.End()
	if err != nil {
		return err
	}
	return checkFleetAnswer(f.seed, full, diags, want)
}

// ladder fits GraphGen's growth exponent across three fleet sizes.
func (p *probe) ladder() error {
	var nodes, times []float64
	var points []string
	for _, s := range ladderShapes {
		s.Seed = fleetSeed(p.env.seed, 0)
		reg, partial, err := workload.Generate(s)
		if err != nil {
			return err
		}
		var g *hypergraph.Graph
		d, err := p.timed("hypergraph.Generate/"+s.String(), 1, func() (err error) {
			g, err = hypergraph.Generate(reg, partial)
			return err
		})
		if err != nil {
			return err
		}
		nodes = append(nodes, float64(g.Len()))
		times = append(times, ms(d))
		points = append(points, fmt.Sprintf("%s: %d nodes in %.1f ms", s, g.Len(), ms(d)))
	}
	slope, err := logLogSlope(nodes, times)
	if err != nil {
		return err
	}
	p.m["hypergraph.slope"] = slope
	p.res.note("finding.hypergraph_slope", map[string]any{"slope": slope, "points": points})
	return nil
}

// serveLayers times, in process, the calls the configure handler makes,
// on the serve workloads' own bodies.
func (p *probe) serveLayers() error {
	m := p.m
	var reg *resource.Registry
	d, err := p.timed("library.Registry", 5, func() (err error) {
		reg, err = library.Registry()
		return err
	})
	if err != nil {
		return err
	}
	m["rdl.load_ms"] = ms(d)
	want := &p.env.pins.Serve
	sb := makeServeBodies()
	e := config.New(reg)

	var dec, key, res, lc, mar, cold []float64
	for i, b := range sb.configure {
		var req struct {
			Partial *spec.Partial `json:"partial"`
		}
		d, err := p.timed("spec.Partial.UnmarshalJSON", microReps, func() error { return json.Unmarshal(b, &req) })
		if err != nil {
			return err
		}
		dec = append(dec, us(d))
		d, err = p.timed("spec.Render", microReps, func() error {
			text, err := spec.Render(req.Partial)
			sha256.Sum256([]byte(text))
			return err
		})
		if err != nil {
			return err
		}
		key = append(key, us(d))

		var sess *config.Session
		var full *spec.Full
		d, err = p.timed("config.ConfigureSessionStats", coldReps, func() (err error) {
			full, sess, _, err = e.ConfigureSessionStats(req.Partial)
			return err
		})
		if err != nil {
			return err
		}
		cold = append(cold, ms(d))
		d, err = p.timed("config.Session.Resolve", microReps, func() (err error) {
			full, _, err = sess.Resolve(e, req.Partial)
			return err
		})
		if err != nil {
			return err
		}
		res = append(res, us(d))
		p.check(expectInstances(i, len(full.Instances), want.ConfigureInstances))
		d, err = p.timed("spec.LineCount", microReps, func() error {
			spec.LineCount(full)
			return nil
		})
		if err != nil {
			return err
		}
		lc = append(lc, us(d))
		d, err = p.timed("json.MarshalIndent", microReps, func() error {
			_, err := json.MarshalIndent(map[string]any{"full": full, "instances": len(full.Instances)}, "", "  ")
			return err
		})
		if err != nil {
			return err
		}
		mar = append(mar, us(d))
	}
	m["spec.decode_us"], m["spec.key_us"], m["config.resolve_us"] = mean(dec), mean(key), mean(res)
	m["spec.linecount_us"], m["spec.marshal_us"], m["config.cold_ms"] = mean(lc), mean(mar), mean(cold)

	unsat := unsatStack()
	var expl *lint.UnsatExplanation
	d, err = p.timed("lint.ExplainUnsat", coldReps, func() error {
		if expl = lint.ExplainUnsat(reg, unsat, lint.Options{}); expl == nil {
			return fmt.Errorf("the unsat stack was satisfiable")
		}
		return nil
	})
	if err != nil {
		return err
	}
	m["lint.mus_ms"], m["lint.mus_size"] = ms(d), float64(len(expl.Core))
	var core []string
	for _, c := range expl.Core {
		core = append(core, c.String())
	}
	if !sameSet(core, want.UnsatCore) {
		p.check(fmt.Errorf("unsat core %q, recorded %q", core, want.UnsatCore))
	} else {
		p.check(nil)
	}

	apply := applyStacks()[0]
	var applied *stack.Applied
	d, err = p.timed("stack.Controller.Apply", coldReps, func() (err error) {
		ctl := &stack.Controller{Options: deploy.Options{
			Registry:         reg,
			Drivers:          library.Drivers(),
			World:            machine.NewWorld(),
			Index:            library.PackageIndex(),
			Cache:            pkgmgr.NewCache(),
			ProvisionMissing: true,
			OSOf:             library.OSOf,
		}}
		applied, err = ctl.Apply("bench", apply)
		return err
	})
	if err != nil {
		return err
	}
	m["stack.apply_ms"] = ms(d)
	p.check(expectInstances(0, len(applied.Stack.Desired.Instances), want.ApplyInstances))
	return nil
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func expectInstances(i, got int, want []int) error {
	if i >= len(want) || got != want[i] {
		return fmt.Errorf("body %d: %d instances, recorded %v", i, got, want)
	}
	return nil
}

// scraped runs a short session of t and reads the server's own view of
// it: handler times, pool effectiveness and solver calls per request.
func (p *probe) scraped(t traffic) error {
	window := p.env.window / 4
	if window < 2*time.Second {
		window = 2 * time.Second
	}
	sp := p.root.Child("bench.serve_session").Str("traffic", t.name)
	ss, err := runSession(p.env, t, window)
	sp.End()
	if err != nil {
		return err
	}
	p.res.invalid = append(p.res.invalid, ss.invalid(t)...)
	ss.tally(p.res)
	m, pre := p.m, t.name+"."
	b, a := ss.before, ss.after
	n := float64(len(ss.outs))
	serverMean := func(op string) float64 {
		h0, h1 := b.histograms["api.http."+op+".latency_ns"], a.histograms["api.http."+op+".latency_ns"]
		if h1.Count == h0.Count {
			return 0
		}
		return float64(h1.Sum-h0.Sum) / float64(h1.Count-h0.Count) / 1e6
	}
	m[pre+"api.configure.server_ms"] = serverMean("configure")
	if t.name == "mixed" {
		m[pre+"api.deploy.server_ms"] = serverMean("deploy")
		m[pre+"api.stack_post.server_ms"] = serverMean("stack_post")
	}
	var handlerNs, handled int64
	for _, op := range []string{"configure", "deploy", "stack_post"} {
		handlerNs += a.histograms["api.http."+op+".latency_ns"].Sum - b.histograms["api.http."+op+".latency_ns"].Sum
		handled += a.histograms["api.http."+op+".latency_ns"].Count - b.histograms["api.http."+op+".latency_ns"].Count
	}
	lat := ss.latencies()
	m[pre+"api.outside_ms"] = mean(lat) - float64(handlerNs)/float64(handled)/1e6
	hits, misses := a.pool.Hits-b.pool.Hits, a.pool.Misses-b.pool.Misses
	m[pre+"api.pool.hit_ratio"] = float64(hits) / float64(hits+misses)
	m[pre+"api.pool.keys"] = float64(a.pool.Keys)
	m[pre+"api.pool.idle"] = float64(a.pool.Idle)
	m[pre+"sat.solves_per_req"] = float64(a.counters["sat.solves"]-b.counters["sat.solves"]) / n
	m[pre+"client.p90_ms"] = percentile(lat, 90)
	m[pre+"client.p99_ms"] = percentile(lat, 99)
	m[pre+"client.samples"] = float64(len(lat))
	var late []float64
	for _, o := range ss.outs {
		late = append(late, ms(o.late))
	}
	m[pre+"client.late_ms"] = percentile(late, 99)
	m[pre+"client.cpu_ms_per_req"] = ms(ss.clientCPU) / n
	p.res.note("finding."+t.name+".pool_keys", map[string]any{
		"before_window": b.pool.Keys, "after_window": a.pool.Keys, "server_rss_peak_mb": float64(ss.serverHWMkB) / 1024,
	})
	return nil
}
