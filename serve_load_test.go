package engage

// TestServeLoad is the control plane's load proof (ISSUE 8's tentpole
// acceptance): thousands of concurrent POST /v1/configure submissions
// against a resident api.Server over the bundled library, driven
// through a real HTTP server by internal/api/loadtest. It asserts the
// two architectural claims — sustained in-process throughput (≥1000
// submissions/sec, p99 reported) and the warm-session win (every warm
// response's sat.Stats delta shows strictly fewer propagations than
// every cold solve of the same body) — and writes one row to
// BENCH_serve.json. That file is not tracked: CI uploads it as the
// serve-load artifact.
//
// Set ENGAGE_SERVE_TRACE to a path to attach a tracer; CI validates the
// emitted trace with `engage trace validate`.

import (
	"encoding/json"
	"os"
	"runtime"
	"testing"

	"engage/internal/api"
	"engage/internal/api/loadtest"
	"engage/internal/resource"
	"engage/internal/spec"
	"engage/internal/telemetry"
)

// serveLoadBodies are the request payloads: three distinct bundled-library
// stacks, each with at least one abstract choice (Java's JDK⊕JRE), so
// every cold solve does real search for the warm path to beat.
func serveLoadBodies(t testing.TB) [][]byte {
	t.Helper()
	openmrs := &spec.Partial{}
	openmrs.Add("server", resource.MakeKey("Mac-OSX", "10.6"))
	openmrs.Add("tomcat", resource.MakeKey("Tomcat", "6.0.18")).In("server")
	openmrs.Add("openmrs", resource.MakeKey("OpenMRS", "1.8")).In("tomcat")

	jasper := &spec.Partial{}
	jasper.Add("server", resource.MakeKey("Ubuntu", "12.04"))
	jasper.Add("tomcat", resource.MakeKey("Tomcat", "6.0.18")).In("server")
	jasper.Add("jasper", resource.MakeKey("JasperReports", "4.5")).In("tomcat")

	legacy := &spec.Partial{}
	legacy.Add("server", resource.MakeKey("Ubuntu", "10.04"))
	legacy.Add("tomcat", resource.MakeKey("Tomcat", "5.5")).In("server")
	legacy.Add("openmrs", resource.MakeKey("OpenMRS", "1.8")).In("tomcat")

	var bodies [][]byte
	for _, p := range []*spec.Partial{openmrs, jasper, legacy} {
		b, err := json.Marshal(map[string]any{"partial": p})
		if err != nil {
			t.Fatal(err)
		}
		bodies = append(bodies, b)
	}
	return bodies
}

func TestServeLoad(t *testing.T) {
	var tracer *telemetry.Tracer
	if path := os.Getenv("ENGAGE_SERVE_TRACE"); path != "" {
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		tracer = telemetry.New(f, nil)
	}
	srv, err := api.NewBundled(api.Options{Tracer: tracer})
	if err != nil {
		t.Fatal(err)
	}

	requests := 6000
	if testing.Short() {
		requests = 2000
	}
	res, err := loadtest.Run(loadtest.Options{
		Handler:     srv.Handler(),
		Bodies:      serveLoadBodies(t),
		Requests:    requests,
		Concurrency: 32,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%d requests @ %d workers: %.0f req/s, p50 %.2fms p95 %.2fms p99 %.2fms, warm %d cold %d (%.1f%% warm)",
		res.Requests, res.Concurrency, res.ReqPerSec,
		float64(res.P50Ns)/1e6, float64(res.P95Ns)/1e6, float64(res.P99Ns)/1e6,
		res.WarmHits, res.Cold, 100*res.WarmHitRate)

	if res.Errors > 0 {
		t.Fatalf("%d of %d requests failed; first: %s", res.Errors, res.Requests, res.FirstError)
	}
	if res.WarmHits == 0 {
		t.Fatal("no request hit a warm session — the pool is not pooling")
	}
	// Every body must have been solved cold at least once and served
	// warm at least once, with every warm delta strictly below every
	// cold one.
	if len(res.PerSpec) != 3 {
		t.Fatalf("expected stats for 3 bodies, got %d", len(res.PerSpec))
	}
	for _, ps := range res.PerSpec {
		if ps.Cold == 0 || ps.WarmHits == 0 {
			t.Errorf("body %d: cold=%d warm=%d — need both paths exercised", ps.Body, ps.Cold, ps.WarmHits)
			continue
		}
		if ps.MinColdProps <= 0 {
			t.Errorf("body %d: cold solve reported %d propagations; the load bodies are chosen to force search",
				ps.Body, ps.MinColdProps)
		}
		if !ps.WarmStrictlyCheaper() {
			t.Errorf("body %d: warm propagations [%d,%d] not strictly below cold [%d,%d]",
				ps.Body, ps.MinWarmProps, ps.MaxWarmProps, ps.MinColdProps, ps.MaxColdProps)
		}
	}
	// The 1000 req/s acceptance floor is for the real binary; the race
	// detector's instrumentation costs roughly an order of magnitude, so
	// race builds only smoke-check that throughput stays three-digit.
	floor := 1000.0
	if raceEnabled {
		floor = 100
	}
	if res.ReqPerSec < floor {
		t.Errorf("throughput %.0f req/s below the %.0f req/s floor", res.ReqPerSec, floor)
	}

	pool := srv.PoolStats()
	if pool.Hits != int64(res.WarmHits) || pool.Misses != int64(res.Cold) {
		t.Errorf("pool accounting (hits=%d misses=%d) disagrees with responses (warm=%d cold=%d)",
			pool.Hits, pool.Misses, res.WarmHits, res.Cold)
	}

	out := struct {
		Benchmark  string          `json:"benchmark"`
		GoMaxProcs int             `json:"gomaxprocs"`
		NumCPU     int             `json:"num_cpu"`
		Short      bool            `json:"short"`
		Result     loadtest.Result `json:"result"`
	}{
		Benchmark:  "TestServeLoad",
		GoMaxProcs: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Short:      testing.Short(),
		Result:     res,
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile("BENCH_serve.json", append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}
