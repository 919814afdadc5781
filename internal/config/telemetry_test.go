package config

import (
	"bytes"
	"testing"

	"engage/internal/spec"
	"engage/internal/telemetry"
)

// entryPoints calls each configuration entry point, keyed by the mode
// it traces as.
var entryPoints = map[string]func(*Engine, *spec.Partial) error{
	"configure": func(e *Engine, p *spec.Partial) error {
		_, err := e.Configure(p)
		return err
	},
	"session": func(e *Engine, p *spec.Partial) error {
		_, _, err := e.ConfigureSession(p)
		return err
	},
	"minimal": func(e *Engine, p *spec.Partial) error {
		_, err := e.ConfigureMinimal(p)
		return err
	},
	"alternatives": func(e *Engine, p *spec.Partial) error {
		_, err := e.Alternatives(p, 0)
		return err
	},
}

// TestEveryEntryPointTracesOneTree: each entry point emits one "config"
// root, its mode as an attribute, with the graph, encode, solve and
// build stage spans as children. Every solve of the call is one
// "sat.solve" event under config.solve, and the metrics count each
// solve's effort exactly once.
func TestEveryEntryPointTracesOneTree(t *testing.T) {
	for mode, entry := range entryPoints {
		t.Run(mode, func(t *testing.T) {
			var buf bytes.Buffer
			e := engine(t)
			e.Tracer = telemetry.New(&buf, nil)
			e.Metrics = telemetry.NewRegistry()
			if err := entry(e, fig2(t)); err != nil {
				t.Fatal(err)
			}
			trace, err := telemetry.ReadTrace(&buf)
			if err != nil {
				t.Fatalf("trace does not validate: %v", err)
			}
			roots := trace.Spans("config")
			if len(roots) != 1 || len(trace.Spans("")) != 5 {
				t.Fatalf("got %d config roots among %d spans, want 1 root and its 4 stages", len(roots), len(trace.Spans("")))
			}
			root := roots[0]
			if got := root.Str("mode"); got != mode {
				t.Errorf("root mode = %q, want %q", got, mode)
			}
			var names []string
			var solve *telemetry.Line
			for _, ch := range trace.ChildSpans(root.ID) {
				names = append(names, ch.Name)
				if ch.Name == "config.solve" {
					solve = ch
				}
			}
			want := []string{"config.graph", "config.encode", "config.solve", "config.build"}
			if len(names) != len(want) {
				t.Fatalf("stages = %v, want %v", names, want)
			}
			for i := range want {
				if names[i] != want[i] {
					t.Fatalf("stages = %v, want %v", names, want)
				}
			}

			events := trace.SpanEvents(solve.ID)
			var decisions, propagations int64
			for _, ev := range events {
				decisions += ev.Int("decisions")
				propagations += ev.Int("propagations")
			}
			if len(events) == 0 || len(events) != len(trace.Events("sat.solve")) {
				t.Fatalf("%d sat.solve events under config.solve, %d in all", len(events), len(trace.Events("sat.solve")))
			}
			m := e.Metrics
			if got := m.Counter("sat.solves").Value(); got != int64(len(events)) {
				t.Errorf("sat.solves = %d, want %d (one per solve)", got, len(events))
			}
			if m.Counter("sat.decisions").Value() != decisions || m.Counter("sat.propagations").Value() != propagations {
				t.Errorf("sat.decisions/propagations = %d/%d, want %d/%d (each solve counted once)",
					m.Counter("sat.decisions").Value(), m.Counter("sat.propagations").Value(), decisions, propagations)
			}
			if m.Histogram("config.solve_wall_ns").Count() != 1 {
				t.Errorf("config.solve_wall_ns observed %d times, want once per call", m.Histogram("config.solve_wall_ns").Count())
			}
		})
	}
}
