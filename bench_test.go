package engage

// Benchmark harness regenerating every table and figure of the paper's
// evaluation (see DESIGN.md §4 for the experiment index and
// EXPERIMENTS.md for paper-vs-measured results). Absolute numbers come
// from the simulated substrate; the shapes (who wins, by what factor,
// where the crossovers fall) are the reproduction targets.
//
// Run with: go test -bench=. -benchmem

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"testing"
	"time"

	"engage/internal/certify"
	"engage/internal/config"
	"engage/internal/constraint"
	"engage/internal/deploy"
	"engage/internal/hypergraph"
	"engage/internal/library"
	"engage/internal/machine"
	"engage/internal/packager"
	"engage/internal/pkgmgr"
	"engage/internal/rdl"
	"engage/internal/resource"
	"engage/internal/sat"
	"engage/internal/spec"
	"engage/internal/stack"
	"engage/internal/upgrade"
	"engage/internal/workload"
)

// --- helpers ---

func mustSystem(b *testing.B) *System {
	b.Helper()
	sys, err := NewSystem()
	if err != nil {
		b.Fatal(err)
	}
	return sys
}

func openmrsPartialBench() *Partial {
	p := NewPartial()
	p.Add("server", ParseKey("Mac-OSX 10.6")).
		Set("hostname", Str("localhost")).
		Set("os_user_name", Str("root"))
	p.Add("tomcat", ParseKey("Tomcat 6.0.18")).In("server")
	p.Add("openmrs", ParseKey("OpenMRS 1.8")).In("tomcat")
	return p
}

func jasperPartialBench() *Partial {
	p := NewPartial()
	p.Add("server", ParseKey("Ubuntu 12.04"))
	p.Add("tomcat", ParseKey("Tomcat 6.0.18")).In("server")
	p.Add("jasper", ParseKey("JasperReports 4.5")).In("tomcat")
	return p
}

func appByName(b *testing.B, name string) App {
	b.Helper()
	for _, a := range TableOneApps() {
		if a.Name == name {
			return a
		}
	}
	b.Fatalf("no Table 1 app %q", name)
	return App{}
}

// --- E1: Fig. 1/Fig. 2 and the §2 numbers ---
// Paper: OpenMRS partial spec 22 lines → full spec 204 lines; the
// constraint system picks exactly one of {jdk, jre}.

func BenchmarkE1_OpenMRSConfig(b *testing.B) {
	sys := mustSystem(b)
	partial := openmrsPartialBench()
	var full *Full
	var st config.Stats
	var err error
	for i := 0; i < b.N; i++ {
		full, st, err = sys.ConfigureStats(partial)
		if err != nil {
			b.Fatal(err)
		}
	}
	pl, fl := LineCount(partial), LineCount(full)
	b.ReportMetric(float64(pl), "partial-lines")
	b.ReportMetric(float64(fl), "full-lines")
	b.ReportMetric(float64(fl)/float64(pl), "expansion-x")
	b.ReportMetric(float64(st.Clauses), "clauses")
	b.Logf("E1 row: partial=%d lines, full=%d lines (paper: 22 → 204); instances=%d; sat vars=%d clauses=%d",
		pl, fl, len(full.Instances), st.Vars, st.Clauses)
}

// --- E2: Fig. 3, the Tomcat driver state machine ---
// One iteration deploys the OpenMRS stack (driving each driver
// uninstalled→inactive→active) and shuts it down (active→inactive),
// exercising the guarded transitions exactly as Fig. 3 draws them.

func BenchmarkE2_DriverLifecycle(b *testing.B) {
	sys := mustSystem(b)
	full, err := sys.Configure(openmrsPartialBench())
	if err != nil {
		b.Fatal(err)
	}
	var elapsed time.Duration
	for i := 0; i < b.N; i++ {
		sys.World = NewWorld()
		sys.Cache = nil
		dep, err := sys.Deploy(full)
		if err != nil {
			b.Fatal(err)
		}
		elapsed = dep.Elapsed()
		if err := dep.Shutdown(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(elapsed.Seconds(), "sim-deploy-seconds")
	b.Logf("E2 row: full lifecycle (install→start→stop) of 5 drivers; simulated deploy time %v", elapsed)
}

// --- E3: Fig. 4, the subtyping rules ---
// Checks every ordered pair of library types through the ≤RT derivation.

func BenchmarkE3_Subtyping(b *testing.B) {
	reg, err := library.Registry()
	if err != nil {
		b.Fatal(err)
	}
	keys := reg.Keys()
	positives, checks := 0, 0
	for i := 0; i < b.N; i++ {
		sub := resource.NewSubtyper(reg)
		positives, checks = 0, 0
		for _, k1 := range keys {
			for _, k2 := range keys {
				checks++
				if sub.IsSubtype(k1, k2) {
					positives++
				}
			}
		}
	}
	b.ReportMetric(float64(checks), "pairs-checked")
	b.ReportMetric(float64(positives), "subtype-pairs")
	b.Logf("E3 row: %d type pairs checked, %d in the ≤RT relation", checks, positives)
}

// --- E4: Fig. 5, the generated hypergraph ---
// Paper: 6 nodes (server, tomcat, openmrs, jdk, jre, mysql), inside
// edges, two env hyperedges to {jdk, jre}, one peer edge to mysql.

func BenchmarkE4_Hypergraph(b *testing.B) {
	reg, err := library.Registry()
	if err != nil {
		b.Fatal(err)
	}
	partial := openmrsPartialBench()
	var g *hypergraph.Graph
	for i := 0; i < b.N; i++ {
		g, err = hypergraph.Generate(reg, partial)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(g.Len()), "nodes")
	b.ReportMetric(float64(len(g.Edges)), "hyperedges")
	b.Logf("E4 row: %d nodes, %d hyperedges (paper Fig. 5: 6 nodes)", g.Len(), len(g.Edges))
}

// --- E5: Table 1, the eight Django applications ---
// Every application deploys with zero app-specific deployment code.

func BenchmarkE5_DjangoApps(b *testing.B) {
	for _, app := range TableOneApps() {
		app := app
		b.Run(app.Name, func(b *testing.B) {
			var instances int
			var elapsed time.Duration
			for i := 0; i < b.N; i++ {
				sys := mustSystem(b)
				sys.Cache = nil
				arch, err := sys.PackageApp(app)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := sys.RegisterApp(arch); err != nil {
					b.Fatal(err)
				}
				cfg := DeployConfig{
					OS:        ParseKey("Ubuntu 12.04"),
					WebServer: ParseKey("Gunicorn 0.13"),
					Database:  ParseKey("MySQL 5.1"),
				}
				if arch.Manifest.DatabaseEngine == "sqlite" {
					cfg.Database = ParseKey("SQLite 3.7")
				}
				full, err := sys.Configure(DjangoPartial(cfg, arch.Manifest))
				if err != nil {
					b.Fatal(err)
				}
				dep, err := sys.Deploy(full)
				if err != nil {
					b.Fatal(err)
				}
				instances = len(full.Instances)
				elapsed = dep.Elapsed()
			}
			b.ReportMetric(float64(instances), "instances")
			b.ReportMetric(elapsed.Seconds(), "sim-deploy-seconds")
			b.Logf("E5 row: %-18s deployable with zero app-specific code; %d instances, %v simulated",
				app.Name, instances, elapsed)
		})
	}
}

// --- E6: §6.1 JasperReports install times ---
// Paper: 17 minutes downloading from the internet, 5 minutes from a
// local file cache (3.4x). Partial spec 26 lines → full 434 lines.

func BenchmarkE6_JasperInstall(b *testing.B) {
	run := func(b *testing.B, cache *pkgmgr.Cache) time.Duration {
		var elapsed time.Duration
		for i := 0; i < b.N; i++ {
			sys := mustSystem(b)
			sys.Cache = cache
			full, err := sys.Configure(jasperPartialBench())
			if err != nil {
				b.Fatal(err)
			}
			dep, err := sys.Deploy(full)
			if err != nil {
				b.Fatal(err)
			}
			elapsed = dep.Elapsed()
		}
		return elapsed
	}
	var cold, warm time.Duration
	b.Run("internet", func(b *testing.B) {
		cold = run(b, nil)
		b.ReportMetric(cold.Minutes(), "sim-minutes")
	})
	b.Run("local-cache", func(b *testing.B) {
		cache := pkgmgr.NewCache()
		// Warm the cache with one throwaway install.
		sys := mustSystem(b)
		sys.Cache = cache
		full, err := sys.Configure(jasperPartialBench())
		if err != nil {
			b.Fatal(err)
		}
		if _, err := sys.Deploy(full); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		warm = run(b, cache)
		b.ReportMetric(warm.Minutes(), "sim-minutes")
	})
	sys := mustSystem(b)
	partial := jasperPartialBench()
	full, err := sys.Configure(partial)
	if err != nil {
		b.Fatal(err)
	}
	b.Logf("E6 rows: internet=%v cache=%v speedup=%.1fx (paper: 17m / 5m = 3.4x); spec %d → %d lines (paper: 26 → 434)",
		cold, warm, float64(cold)/float64(warm), LineCount(partial), LineCount(full))
}

// --- E7: §6.2's 256 distinct deployment configurations ---
// Every point of the OS × webserver × database × options × monit space
// type-checks and solves.

func BenchmarkE7_ConfigSpace(b *testing.B) {
	sys := mustSystem(b)
	arch, err := sys.PackageApp(appByName(b, "areneae"))
	if err != nil {
		b.Fatal(err)
	}
	arch.Manifest.DatabaseEngine = "" // let the solver choose
	if _, err := sys.RegisterApp(arch); err != nil {
		b.Fatal(err)
	}
	cfgs := AllConfigs()
	eng := config.New(sys.Registry)
	solved := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg := cfgs[i%len(cfgs)]
		if _, err := eng.Configure(DjangoPartial(cfg, arch.Manifest)); err != nil {
			b.Fatalf("%s: %v", cfg, err)
		}
		solved++
	}
	b.ReportMetric(float64(len(cfgs)), "config-space")
	b.Logf("E7 row: %d/%d configurations sampled from the 256-point space, all solvable", solved, len(cfgs))
}

// --- E8: §6.2 WebApp production expansion ---
// Paper: partial 61 lines / 7 resources → full 1,444 lines / 29
// resources.

func BenchmarkE8_WebAppExpansion(b *testing.B) {
	sys := mustSystem(b)
	arch, err := sys.PackageApp(appByName(b, "webapp"))
	if err != nil {
		b.Fatal(err)
	}
	if _, err := sys.RegisterApp(arch); err != nil {
		b.Fatal(err)
	}
	partial := WebAppProductionPartial(arch.Manifest)
	var full *Full
	for i := 0; i < b.N; i++ {
		full, err = sys.Configure(partial)
		if err != nil {
			b.Fatal(err)
		}
	}
	pl, fl := LineCount(partial), LineCount(full)
	b.ReportMetric(float64(len(partial.Instances)), "partial-resources")
	b.ReportMetric(float64(len(full.Instances)), "full-resources")
	b.ReportMetric(float64(fl)/float64(pl), "line-expansion-x")
	b.Logf("E8 row: partial %d resources / %d lines → full %d resources / %d lines (paper: 7/61 → 29/1444)",
		len(partial.Instances), pl, len(full.Instances), fl)
}

// --- E9: §6.2 upgrades with rollback ---
// One iteration: deploy FA v1, upgrade to v2 (succeeds), then attempt a
// failing upgrade and roll back.

func BenchmarkE9_Upgrade(b *testing.B) {
	fa := appByName(b, "fa")
	var upTime time.Duration
	var rolledBack bool
	for i := 0; i < b.N; i++ {
		sys := mustSystem(b)
		archV1, err := sys.PackageApp(fa)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := sys.RegisterApp(archV1); err != nil {
			b.Fatal(err)
		}
		faV2 := fa
		faV2.Version = "2.0"
		archV2, err := sys.PackageApp(faV2)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := sys.RegisterApp(archV2); err != nil {
			b.Fatal(err)
		}
		cfg := DeployConfig{
			OS:        ParseKey("Ubuntu 12.04"),
			WebServer: ParseKey("Gunicorn 0.13"),
			Database:  ParseKey("MySQL 5.1"),
		}
		oldFull, err := sys.Configure(DjangoPartial(cfg, archV1.Manifest))
		if err != nil {
			b.Fatal(err)
		}
		oldDep, err := sys.Deploy(oldFull)
		if err != nil {
			b.Fatal(err)
		}
		newFull, err := sys.Configure(DjangoPartial(cfg, archV2.Manifest))
		if err != nil {
			b.Fatal(err)
		}
		newDep, res, err := sys.Upgrade(oldDep, oldFull, newFull)
		if err != nil || res.RolledBack {
			b.Fatalf("upgrade failed: %v %v", err, res.Cause)
		}
		upTime = res.Elapsed

		// Failing upgrade: squat Redis's port, upgrade to +Redis config.
		m, _ := sys.World.Machine("server")
		if _, err := m.StartProcess("squatter", "nc", 6379); err != nil {
			b.Fatal(err)
		}
		cfgR := cfg
		cfgR.Redis = true
		redisFull, err := sys.Configure(DjangoPartial(cfgR, archV2.Manifest))
		if err != nil {
			b.Fatal(err)
		}
		_, res2, err := sys.Upgrade(newDep, newFull, redisFull)
		if err != nil {
			b.Fatal(err)
		}
		rolledBack = res2.RolledBack
	}
	b.ReportMetric(upTime.Seconds(), "sim-upgrade-seconds")
	if !rolledBack {
		b.Fatal("failing upgrade must roll back")
	}
	b.Logf("E9 rows: v1→v2 upgrade preserved content in %v; injected failure rolled back to prior version", upTime)
}

// --- E10: the spec-compaction claim across all case studies ---
// "usually over an order of magnitude smaller".

func BenchmarkE10_Compaction(b *testing.B) {
	type study struct {
		name    string
		partial *Partial
	}
	sys := mustSystem(b)
	arch, err := sys.PackageApp(appByName(b, "webapp"))
	if err != nil {
		b.Fatal(err)
	}
	if _, err := sys.RegisterApp(arch); err != nil {
		b.Fatal(err)
	}
	studies := []study{
		{"openmrs", openmrsPartialBench()},
		{"jasper", jasperPartialBench()},
		{"webapp-prod", WebAppProductionPartial(arch.Manifest)},
	}
	eng := config.New(sys.Registry)
	minRatio := 1e9
	for i := 0; i < b.N; i++ {
		minRatio = 1e9
		for _, s := range studies {
			full, err := eng.Configure(s.partial)
			if err != nil {
				b.Fatal(err)
			}
			r := float64(LineCount(full)) / float64(LineCount(s.partial))
			if r < minRatio {
				minRatio = r
			}
			if i == 0 {
				b.Logf("E10 row: %-12s partial %3d lines → full %4d lines (%.1fx)",
					s.name, LineCount(s.partial), LineCount(full), r)
			}
		}
	}
	b.ReportMetric(minRatio, "min-expansion-x")
}

// --- A1: CDCL vs DPLL on generated install constraints ---
// A synthetic layered dependency graph with wide disjunctions makes the
// solving cost visible; CDCL's learning dominates as width grows.

func layeredGraph(layers, width, fanout int, seed int64) *hypergraph.Graph {
	rng := rand.New(rand.NewSource(seed))
	g := hypergraph.NewGraph()
	id := func(l, w int) string { return fmt.Sprintf("n%d_%d", l, w) }
	for l := 0; l < layers; l++ {
		for w := 0; w < width; w++ {
			g.AddNode(&hypergraph.Node{ID: id(l, w), FromSpec: l == 0 && w < 2})
		}
	}
	for l := 0; l < layers-1; l++ {
		for w := 0; w < width; w++ {
			targets := make([]string, 0, fanout)
			seen := map[int]bool{}
			for len(targets) < fanout {
				t := rng.Intn(width)
				if seen[t] {
					continue
				}
				seen[t] = true
				targets = append(targets, id(l+1, t))
			}
			g.AddEdge(hypergraph.Hyperedge{Source: id(l, w), Targets: targets})
		}
	}
	return g
}

func BenchmarkA1_SATSolvers(b *testing.B) {
	// A scaling series over graph width, the "figure" form of the
	// ablation: the CDCL/DPLL gap widens with the constraint width.
	for _, width := range []int{8, 12, 16, 20} {
		g := layeredGraph(6, width, 5, 42)
		prob := constraint.Encode(g, constraint.Pairwise)
		for _, solver := range []sat.Solver{sat.NewCDCL(), sat.NewDPLL()} {
			solver := solver
			b.Run(fmt.Sprintf("%s/width-%d", solver.Name(), width), func(b *testing.B) {
				var res sat.Result
				for i := 0; i < b.N; i++ {
					res = solver.Solve(prob.Formula)
					if res.Status != sat.Sat {
						b.Fatalf("expected SAT, got %v", res.Status)
					}
				}
				b.ReportMetric(float64(res.Stats.Decisions), "decisions")
				b.ReportMetric(float64(res.Stats.Propagations), "propagations")
			})
		}
	}
}

// BenchmarkScaling_ConfigEngine sweeps the configuration engine over
// growing application stacks (a chain of N services, each peering with
// the next), reporting end-to-end configure time per stack size — the
// engine's scalability series.
func BenchmarkScaling_ConfigEngine(b *testing.B) {
	buildRegistry := func(n int) (*resource.Registry, *Partial, error) {
		src := &bytesBuilder{}
		src.writef("abstract resource \"Server\" {}\n")
		src.writef("resource \"Box 1\" extends \"Server\" {}\n")
		for i := 0; i < n; i++ {
			src.writef("resource \"Svc%d 1\" {\n    inside \"Server\"\n", i)
			if i > 0 {
				src.writef("    input { up: string }\n")
				src.writef("    peer \"Svc%d 1\" { down%d -> up }\n", i-1, i-1)
			}
			// A per-type output name keeps the chain's types structurally
			// distinct (they are distinct services, not variants).
			src.writef("    output { down%d: string = \"svc%d\" }\n}\n", i, i)
		}
		reg, err := rdlResolve(src.String())
		if err != nil {
			return nil, nil, err
		}
		p := NewPartial()
		p.Add("box", ParseKey("Box 1"))
		p.Add("top", ParseKey(fmt.Sprintf("Svc%d 1", n-1))).In("box")
		return reg, p, nil
	}
	for _, n := range []int{10, 25, 50, 100} {
		n := n
		b.Run(fmt.Sprintf("services-%d", n), func(b *testing.B) {
			reg, p, err := buildRegistry(n)
			if err != nil {
				b.Fatal(err)
			}
			eng := config.New(reg)
			b.ResetTimer()
			var full *Full
			for i := 0; i < b.N; i++ {
				full, err = eng.Configure(p)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(len(full.Instances)), "instances")
		})
	}
}

type bytesBuilder struct{ s []byte }

func (b *bytesBuilder) writef(format string, args ...any) {
	b.s = append(b.s, fmt.Sprintf(format, args...)...)
}
func (b *bytesBuilder) String() string { return string(b.s) }

// --- A2: exactly-one encodings, pairwise vs ladder ---
// Clause count is quadratic vs linear in the disjunction width; solve
// times follow.

func BenchmarkA2_ExactlyOne(b *testing.B) {
	width := 48
	nodes := make([]string, width+1)
	nodes[0] = "src"
	targets := make([]string, width)
	for i := 0; i < width; i++ {
		targets[i] = fmt.Sprintf("t%d", i)
		nodes[i+1] = targets[i]
	}
	build := func() *hypergraph.Graph {
		g := hypergraph.NewGraph()
		g.AddNode(&hypergraph.Node{ID: "src", FromSpec: true})
		for _, t := range targets {
			g.AddNode(&hypergraph.Node{ID: t})
		}
		g.AddEdge(hypergraph.Hyperedge{Source: "src", Targets: targets})
		return g
	}
	for _, enc := range []constraint.Encoding{constraint.Pairwise, constraint.Ladder} {
		enc := enc
		b.Run(enc.String(), func(b *testing.B) {
			var clauses int
			solver := sat.NewCDCL()
			for i := 0; i < b.N; i++ {
				prob := constraint.Encode(build(), enc)
				clauses = len(prob.Formula.Clauses)
				if res := solver.Solve(prob.Formula); res.Status != sat.Sat {
					b.Fatal("expected SAT")
				}
			}
			b.ReportMetric(float64(clauses), "clauses")
			b.Logf("A2 row: %s encoding, width %d → %d clauses", enc, width, clauses)
		})
	}
}

// --- Incremental enumeration: warm vs cold solver sessions ---
// The tentpole measurement for the incremental layer: enumerate every
// full installation specification of a constraint system once on a warm
// incremental session (learned clauses, activity, and phases persist
// across the blocking-clause re-solves) and once on the cold baseline
// (each model costs a from-scratch solve of the grown formula). Both
// paths must produce identical model sets; the warm path must do
// measurably less propagation work.

func BenchmarkIncrementalEnumeration(b *testing.B) {
	exactlyOne := func() *hypergraph.Graph {
		width := 48
		g := hypergraph.NewGraph()
		g.AddNode(&hypergraph.Node{ID: "src", FromSpec: true})
		targets := make([]string, width)
		for i := range targets {
			targets[i] = fmt.Sprintf("t%d", i)
			g.AddNode(&hypergraph.Node{ID: targets[i]})
		}
		g.AddEdge(hypergraph.Hyperedge{Source: "src", Targets: targets})
		return g
	}
	cases := []struct {
		name  string
		enc   constraint.Encoding
		build func() *hypergraph.Graph
	}{
		{"exactly-one-48/pairwise", constraint.Pairwise, exactlyOne},
		{"exactly-one-48/ladder", constraint.Ladder, exactlyOne},
		{"layered-3x6/pairwise", constraint.Pairwise, func() *hypergraph.Graph {
			return layeredGraph(3, 6, 2, 7)
		}},
	}
	modelSet := func(models [][]bool, project []int) map[string]bool {
		set := make(map[string]bool, len(models))
		for _, m := range models {
			key := make([]byte, len(project))
			for i, v := range project {
				if m[v] {
					key[i] = '1'
				} else {
					key[i] = '0'
				}
			}
			set[string(key)] = true
		}
		return set
	}
	for _, tc := range cases {
		tc := tc
		prob := constraint.Encode(tc.build(), tc.enc)
		// Project onto instance variables only; the ladder encoding's
		// auxiliaries must not multiply solutions.
		project := make([]int, 0, prob.Formula.NumVars)
		for v := 1; v < len(prob.IDOf); v++ {
			if prob.IDOf[v] != "" {
				project = append(project, v)
			}
		}
		var warmSet, coldSet map[string]bool
		b.Run(tc.name+"/warm", func(b *testing.B) {
			var st sat.Stats
			var models [][]bool
			for i := 0; i < b.N; i++ {
				models, st = sat.EnumerateModelsStats(sat.NewCDCL(), prob.Formula, project, 0)
			}
			warmSet = modelSet(models, project)
			b.ReportMetric(float64(len(models)), "models")
			b.ReportMetric(float64(st.Propagations), "propagations")
		})
		b.Run(tc.name+"/cold", func(b *testing.B) {
			var st sat.Stats
			var models [][]bool
			for i := 0; i < b.N; i++ {
				models, st = sat.EnumerateModelsCold(sat.NewCDCL(), prob.Formula, project, 0)
			}
			coldSet = modelSet(models, project)
			b.ReportMetric(float64(len(models)), "models")
			b.ReportMetric(float64(st.Propagations), "propagations")
		})
		if len(warmSet) == 0 || len(coldSet) != len(warmSet) {
			b.Fatalf("%s: warm and cold model sets differ in size: %d vs %d",
				tc.name, len(warmSet), len(coldSet))
		}
		for k := range warmSet {
			if !coldSet[k] {
				b.Fatalf("%s: warm model %s missing from cold enumeration", tc.name, k)
			}
		}
	}
}

// --- A3: parallel vs serial deployment ---
// Virtual-time parallel deployment approaches the dependency critical
// path; serial pays the sum of all action durations.

func BenchmarkA3_ParallelDeploy(b *testing.B) {
	sys := mustSystem(b)
	arch, err := sys.PackageApp(appByName(b, "webapp"))
	if err != nil {
		b.Fatal(err)
	}
	if _, err := sys.RegisterApp(arch); err != nil {
		b.Fatal(err)
	}
	cfg := DeployConfig{
		OS:        ParseKey("Ubuntu 12.04"),
		WebServer: ParseKey("Gunicorn 0.13"),
		Database:  ParseKey("MySQL 5.1"),
		Celery:    true, Redis: true, Memcached: true, Monit: true,
	}
	full, err := sys.Configure(DjangoPartial(cfg, arch.Manifest))
	if err != nil {
		b.Fatal(err)
	}
	var serial, parallel time.Duration
	for _, par := range []bool{false, true} {
		par := par
		name := "serial"
		if par {
			name = "parallel"
		}
		b.Run(name, func(b *testing.B) {
			var elapsed time.Duration
			for i := 0; i < b.N; i++ {
				sys.World = NewWorld()
				sys.Cache = nil
				sys.Parallel = par
				dep, err := sys.Deploy(full)
				if err != nil {
					b.Fatal(err)
				}
				elapsed = dep.Elapsed()
			}
			b.ReportMetric(elapsed.Seconds(), "sim-seconds")
			if par {
				parallel = elapsed
			} else {
				serial = elapsed
			}
		})
	}
	if serial > 0 && parallel > 0 {
		b.Logf("A3 rows: serial=%v parallel=%v speedup=%.2fx", serial, parallel,
			float64(serial)/float64(parallel))
	}
}

// --- A4: multi-host master/slave vs flattened single sequence ---

func BenchmarkA4_MultiHost(b *testing.B) {
	sys := mustSystem(b)
	arch, err := sys.PackageApp(appByName(b, "webapp"))
	if err != nil {
		b.Fatal(err)
	}
	if _, err := sys.RegisterApp(arch); err != nil {
		b.Fatal(err)
	}
	full, err := sys.Configure(WebAppProductionPartial(arch.Manifest))
	if err != nil {
		b.Fatal(err)
	}
	var flat, coordinated time.Duration
	b.Run("single-sequence", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sys.World = NewWorld()
			sys.Cache = nil
			sys.Parallel = false
			dep, err := sys.Deploy(full)
			if err != nil {
				b.Fatal(err)
			}
			flat = dep.Elapsed()
		}
		b.ReportMetric(flat.Seconds(), "sim-seconds")
	})
	b.Run("master-slave-parallel", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sys.World = NewWorld()
			sys.Cache = nil
			sys.Parallel = true
			mh, err := sys.DeployMultiHost(full)
			if err != nil {
				b.Fatal(err)
			}
			coordinated = mh.Elapsed()
		}
		b.ReportMetric(coordinated.Seconds(), "sim-seconds")
	})
	if flat > 0 && coordinated > 0 {
		b.Logf("A4 rows: single-sequence=%v master/slave(parallel)=%v speedup=%.2fx",
			flat, coordinated, float64(flat)/float64(coordinated))
	}
}

// --- A5: full-redeploy vs incremental upgrade (the paper's future work) ---
// Only the application changes between versions; the incremental
// strategy leaves the database, web server, and runtimes running.

func BenchmarkA5_UpgradeStrategies(b *testing.B) {
	prepare := func(b *testing.B) (*System, *Deployment, *Full, *Full) {
		b.Helper()
		sys := mustSystem(b)
		sys.Cache = nil
		fa := appByName(b, "fa")
		archV1, err := sys.PackageApp(fa)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := sys.RegisterApp(archV1); err != nil {
			b.Fatal(err)
		}
		faV2 := fa
		faV2.Version = "2.0"
		archV2, err := sys.PackageApp(faV2)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := sys.RegisterApp(archV2); err != nil {
			b.Fatal(err)
		}
		cfg := DeployConfig{
			OS:        ParseKey("Ubuntu 12.04"),
			WebServer: ParseKey("Gunicorn 0.13"),
			Database:  ParseKey("MySQL 5.1"),
			Memcached: true, Monit: true,
		}
		oldFull, err := sys.Configure(DjangoPartial(cfg, archV1.Manifest))
		if err != nil {
			b.Fatal(err)
		}
		newFull, err := sys.Configure(DjangoPartial(cfg, archV2.Manifest))
		if err != nil {
			b.Fatal(err)
		}
		oldDep, err := sys.Deploy(oldFull)
		if err != nil {
			b.Fatal(err)
		}
		return sys, oldDep, oldFull, newFull
	}

	var fullTime, incrTime time.Duration
	b.Run("full-redeploy", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sys, oldDep, oldFull, newFull := prepare(b)
			_, res, err := sys.Upgrade(oldDep, oldFull, newFull)
			if err != nil || res.RolledBack {
				b.Fatalf("upgrade failed: %v %v", err, res.Cause)
			}
			fullTime = res.Elapsed
		}
		b.ReportMetric(fullTime.Seconds(), "sim-seconds")
	})
	b.Run("incremental", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sys, oldDep, oldFull, newFull := prepare(b)
			_, res, err := sys.UpgradeIncremental(oldDep, oldFull, newFull)
			if err != nil || res.RolledBack {
				b.Fatalf("upgrade failed: %v %v", err, res.Cause)
			}
			incrTime = res.Elapsed
		}
		b.ReportMetric(incrTime.Seconds(), "sim-seconds")
	})
	if fullTime > 0 && incrTime > 0 {
		b.Logf("A5 rows: full-redeploy=%v incremental=%v speedup=%.1fx (paper: 'all upgrades experience the worst case upgrade time' — fixed)",
			fullTime, incrTime, float64(fullTime)/float64(incrTime))
	}
}

// --- sanity: virtual time and specs referenced above stay consistent ---

func BenchmarkSpecRenderThroughput(b *testing.B) {
	sys := mustSystem(b)
	full, err := sys.Configure(openmrsPartialBench())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := spec.Render(full); err != nil {
			b.Fatal(err)
		}
	}
}

var _ = machine.NewWorld // keep import for helper use in future benches
var _ = upgrade.Compute
var _ = packager.Validate

// rdlResolve parses one RDL source into a registry (bench helper).
func rdlResolve(src string) (*resource.Registry, error) {
	return rdl.ParseAndResolve(map[string]string{"bench.rdl": src})
}

// --- Scale: synthetic fleets through the whole pipeline ---
// Sweeps the fleet ladder over the full pipeline — hypergraph
// generation + constraint emission (front), SAT (solve), port
// propagation (propagate, a slice of build), spec build (build),
// deployment preparation + concurrent deploy (deploy), and the true
// end-to-end wall (e2e) — on seeded synthetic fleets from
// internal/workload, and writes one row per fleet × stage to
// BENCH_scale.json so the perf trajectory has a checked-in baseline.
// The big fleets (fleet2000, fleet5000) skip -short runs.

// --- Health: probe overhead on the monitor sweep ---
// The health subsystem's cost model: one monitor sweep over fleet570
// with 0 (baseline: no health blocks declared), 1, and 4 probes per
// instance. Probes read the simulated world's tables, so the measured
// wall time is pure scheduler + state-machine overhead — the number the
// EXPERIMENTS.md probe-overhead table records.

func BenchmarkHealthProbeOverhead(b *testing.B) {
	shape := workload.Spec{Seed: 1, Families: 28, Versions: 5,
		EnvFanout: 3, PeerFanout: 2, Machines: 24, Instances: 6} // fleet570
	for _, probes := range []int{0, 1, 4} {
		probes := probes
		b.Run(fmt.Sprintf("probes-%d", probes), func(b *testing.B) {
			sp := shape
			sp.Probes = probes
			reg, partial, err := workload.Generate(sp)
			if err != nil {
				b.Fatal(err)
			}
			ctl := &stack.Controller{Options: deploy.Options{
				Registry:         reg,
				Drivers:          deploy.NewDriverRegistry(),
				World:            machine.NewWorld(),
				Index:            pkgmgr.NewIndex(),
				ProvisionMissing: true,
			}}
			a, err := ctl.Apply("bench", partial)
			if err != nil {
				b.Fatal(err)
			}
			clock := ctl.Options.World.Clock
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				clock.Advance(30 * time.Second)
				a.Monitor.Check()
			}
			b.ReportMetric(float64(len(a.Health.Tracked())), "probed-instances")
		})
	}
}

// BenchmarkProofOverhead prices DRAT-style proof logging on the fleet
// ladder's solve stage: the same CDCL search with and without a proof
// sink. The acceptance bar is proof-on solve wall ≤ 2× proof-off at
// fleet570 (EXPERIMENTS.md "Certified solving").
func BenchmarkProofOverhead(b *testing.B) {
	for _, sh := range workload.FleetShapes() {
		sh := sh
		if sh.Big {
			continue
		}
		b.Run(sh.Name, func(b *testing.B) {
			reg, partial, err := workload.Generate(sh.Spec)
			if err != nil {
				b.Fatal(err)
			}
			g, err := hypergraph.Generate(reg, partial)
			if err != nil {
				b.Fatal(err)
			}
			prob := constraint.Encode(g, constraint.Pairwise)
			for _, logProof := range []bool{false, true} {
				name := "proof-off"
				if logProof {
					name = "proof-on"
				}
				b.Run(name, func(b *testing.B) {
					b.ReportAllocs()
					var res sat.Result
					for i := 0; i < b.N; i++ {
						res = (&sat.CDCL{LogProof: logProof}).Solve(prob.Formula)
						if res.Status != sat.Sat {
							b.Fatalf("expected SAT, got %v", res.Status)
						}
					}
					// SAT results carry a model, not a proof; the
					// logged-step count still prices the bookkeeping.
					if logProof {
						b.ReportMetric(float64(res.Stats.ProofSteps), "proof-steps")
					}
				})
			}
			// The checker's side of the ledger: certifying the model by
			// direct clause evaluation.
			b.Run("check-model", func(b *testing.B) {
				res := sat.NewCDCL().Solve(prob.Formula)
				if res.Status != sat.Sat {
					b.Fatalf("expected SAT, got %v", res.Status)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := certify.CheckModel(prob.Formula, res.Model); err != nil {
						b.Fatal(err)
					}
				}
			})
		})
	}

	// A conflict-heavy control: random 3-CNF at the phase transition,
	// where nearly every step is a learned clause. This is the honest
	// upper bound — fleet encodings learn a few dozen clauses, this
	// learns thousands.
	b.Run("hard3sat", func(b *testing.B) {
		rng := rand.New(rand.NewSource(7))
		n, m := 140, 616 // ratio 4.4, UNSAT for this seed
		f := sat.NewFormula(n)
		for i := 0; i < m; i++ {
			vs := rng.Perm(n)[:3]
			cl := make([]sat.Lit, 3)
			for j, v := range vs {
				cl[j] = sat.Lit(v + 1)
				if rng.Intn(2) == 0 {
					cl[j] = -cl[j]
				}
			}
			f.Add(cl...)
		}
		for _, logProof := range []bool{false, true} {
			name := "proof-off"
			if logProof {
				name = "proof-on"
			}
			b.Run(name, func(b *testing.B) {
				b.ReportAllocs()
				var res sat.Result
				for i := 0; i < b.N; i++ {
					res = (&sat.CDCL{LogProof: logProof}).Solve(f)
					if res.Status != sat.Unsat {
						b.Fatalf("expected UNSAT, got %v", res.Status)
					}
				}
				if logProof {
					b.ReportMetric(float64(res.Stats.ProofSteps), "proof-steps")
				}
			})
		}
		// The checker's side: full RUP replay of the UNSAT proof.
		b.Run("check-proof", func(b *testing.B) {
			res := (&sat.CDCL{LogProof: true}).Solve(f)
			if res.Status != sat.Unsat {
				b.Fatalf("expected UNSAT, got %v", res.Status)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := certify.CheckUnsat(f, res.Proof); err != nil {
					b.Fatal(err)
				}
			}
		})
	})
}

func BenchmarkScaleFleet(b *testing.B) {
	stages := []string{"front", "solve", "propagate", "build", "deploy", "e2e"}

	type row struct {
		Fleet         string  `json:"fleet"`
		Shape         string  `json:"shape"`
		Stage         string  `json:"stage"`
		NsPerOp       float64 `json:"ns_per_op"`
		GraphNodes    int     `json:"graph_nodes"`
		GraphEdges    int     `json:"graph_edges"`
		Clauses       int     `json:"clauses"`
		FullInstances int     `json:"full_instances"`
	}
	// b.Run invokes each sub-benchmark more than once while
	// calibrating b.N; key rows by fleet/stage so the final run wins.
	rowByName := make(map[string]row)
	var order []string

	for _, sh := range workload.FleetShapes() {
		sh := sh
		if sh.Big && testing.Short() {
			continue
		}
		// The fleet group exists so -bench filters skip unselected
		// fleets entirely, and so a fleet's generation and shape
		// metadata are paid once rather than once per b.N calibration.
		b.Run(sh.Name, func(b *testing.B) {
			reg, partial, err := workload.Generate(sh.Spec)
			if err != nil {
				b.Fatal(err)
			}
			// Shape metadata, measured once outside the timed loop.
			g, err := hypergraph.Generate(reg, partial)
			if err != nil {
				b.Fatal(err)
			}
			prob := constraint.Encode(g, constraint.Pairwise)
			fullMeta, err := config.New(reg).Configure(partial)
			if err != nil {
				b.Fatal(err)
			}

			b.Run("pipeline", func(b *testing.B) {
				b.ReportAllocs()
				var front, solve, prop, build, dep, e2e time.Duration
				for i := 0; i < b.N; i++ {
					start := time.Now()
					full, st, err := config.New(reg).ConfigureStats(partial)
					if err != nil {
						b.Fatal(err)
					}
					if len(full.Instances) != len(fullMeta.Instances) {
						b.Fatalf("output drifted: %d instances, want %d",
							len(full.Instances), len(fullMeta.Instances))
					}
					dstart := time.Now()
					d, err := deploy.New(full, deploy.Options{
						Registry:         reg,
						Drivers:          deploy.NewDriverRegistry(),
						World:            machine.NewWorld(),
						Index:            pkgmgr.NewIndex(),
						ProvisionMissing: true,
					})
					if err != nil {
						b.Fatal(err)
					}
					if err := d.DeployConcurrent(); err != nil {
						b.Fatal(err)
					}
					front += st.GraphWall + st.EncodeWall
					solve += st.SolveWall
					prop += st.PropagateWall
					build += st.BuildWall
					dep += time.Since(dstart)
					e2e += time.Since(start)
				}
				b.ReportMetric(float64(len(fullMeta.Instances)), "instances")
				perOp := func(d time.Duration) float64 {
					return float64(d.Nanoseconds()) / float64(b.N)
				}
				stageNs := map[string]float64{
					"front": perOp(front), "solve": perOp(solve),
					"propagate": perOp(prop), "build": perOp(build),
					"deploy": perOp(dep), "e2e": perOp(e2e),
				}
				for _, stg := range stages {
					key := sh.Name + "/" + stg
					if _, seen := rowByName[key]; !seen {
						order = append(order, key)
					}
					rowByName[key] = row{
						Fleet:         sh.Name,
						Shape:         sh.Spec.String(),
						Stage:         stg,
						NsPerOp:       stageNs[stg],
						GraphNodes:    g.Len(),
						GraphEdges:    len(g.Edges),
						Clauses:       len(prob.Formula.Clauses),
						FullInstances: len(fullMeta.Instances),
					}
				}
			})
		})
	}

	if len(order) == 0 {
		return
	}
	rows := make([]row, 0, len(order))
	for _, name := range order {
		rows = append(rows, rowByName[name])
	}
	out := struct {
		Benchmark  string `json:"benchmark"`
		Stage      string `json:"stage"`
		GoMaxProcs int    `json:"gomaxprocs"`
		NumCPU     int    `json:"num_cpu"`
		Rows       []row  `json:"rows"`
	}{
		Benchmark:  "BenchmarkScaleFleet",
		Stage:      "full pipeline: front (graph+encode), solve, propagate, build, deploy, e2e",
		GoMaxProcs: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Rows:       rows,
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		b.Fatal(err)
	}
	if err := os.WriteFile("BENCH_scale.json", append(data, '\n'), 0o644); err != nil {
		b.Fatal(err)
	}
}
