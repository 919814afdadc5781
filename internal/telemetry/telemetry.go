// Package telemetry is Engage's dependency-free tracing and metrics
// subsystem. Every stage of the pipeline — RDL resolve, typechecking,
// hypergraph generation, constraint encoding, SAT solving, deployment
// actions with their retries and rollbacks, fault injections, and
// monitor restarts — reports through it, so a single JSON-lines trace
// answers "where did this deployment spend its time, and which injected
// fault triggered which retry?".
//
// Two kinds of record are emitted:
//
//   - Spans are intervals with a name, a parent, a virtual-time
//     interval stamped from the simulated clock (machine.Clock
//     satisfies the Clock interface), and the wall-clock duration
//     recorded alongside — virtual time is authoritative for deployment
//     stages, wall time for real-perf stages like the SAT solve.
//   - Events are points in virtual time attached to a span (or free-
//     standing), used for retries, backoffs, fault injections, monitor
//     restarts, and incremental re-solves.
//
// Disabled telemetry is free: every method is nil-safe, so a nil
// *Tracer (and the nil *Span / *Event values it hands out) turns the
// whole instrumentation surface into pointer checks with zero
// allocations — the deploy hot path pays nothing when tracing is off
// (see the overhead guard in internal/deploy).
package telemetry

import (
	"encoding/json"
	"io"
	"sync"
	"time"
)

// Clock yields virtual timestamps. *machine.Clock satisfies it; nil
// clocks fall back to the wall clock.
type Clock interface {
	Now() time.Time
}

// Tracer emits spans and events as JSON lines. The zero value is not
// usable; construct with New. A nil *Tracer is a valid disabled tracer:
// every method no-ops without allocating.
type Tracer struct {
	mu     sync.Mutex
	w      io.Writer
	clock  Clock
	nextID int64
	err    error // first write/encode error, sticky
}

// New returns a tracer writing JSON lines to w, stamping virtual times
// from clock (nil = wall clock). Emission is serialized internally, so
// one tracer may be shared by concurrent requests.
func New(w io.Writer, clock Clock) *Tracer {
	return &Tracer{w: w, clock: clock}
}

// Err returns the first emission error, if any (short writes, closed
// files). Tracing continues best-effort after an error.
func (t *Tracer) Err() error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.err
}

func (t *Tracer) now() time.Time {
	if t.clock != nil {
		return t.clock.Now()
	}
	// Round(0) strips the monotonic reading: durations must be
	// recomputable from the serialized wall timestamps, and monotonic
	// deltas need not agree with wall-clock arithmetic.
	return time.Now().Round(0)
}

func (t *Tracer) id() int64 {
	t.mu.Lock()
	t.nextID++
	id := t.nextID
	t.mu.Unlock()
	return id
}

// emit marshals one line and writes it; errors are sticky.
func (t *Tracer) emit(l *Line) {
	data, err := json.Marshal(l)
	t.mu.Lock()
	defer t.mu.Unlock()
	if err != nil {
		if t.err == nil {
			t.err = err
		}
		return
	}
	if _, err := t.w.Write(append(data, '\n')); err != nil && t.err == nil {
		t.err = err
	}
}

// Span is one traced interval under construction. Attribute setters
// chain; End emits the span as a single JSON line. All methods are
// nil-safe.
type Span struct {
	t      *Tracer
	id     int64
	parent int64
	name   string
	vstart time.Time
	vend   time.Time // zero until End or At
	wstart time.Time
	wall   time.Duration // explicit override; 0 = measure at End
	attrs  map[string]any
}

// Span starts a root span. Virtual start is sampled from the tracer's
// clock now; override with At for post-hoc emission.
func (t *Tracer) Span(name string) *Span {
	if t == nil {
		return nil
	}
	return &Span{t: t, id: t.id(), name: name, vstart: t.now(), wstart: time.Now()}
}

// Child starts a span parented under s.
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	sp := s.t.Span(name)
	sp.parent = s.id
	return sp
}

// ID returns the span's identifier (0 for a nil span).
func (s *Span) ID() int64 {
	if s == nil {
		return 0
	}
	return s.id
}

func (s *Span) attr(k string, v any) *Span {
	if s == nil {
		return nil
	}
	if s.attrs == nil {
		s.attrs = make(map[string]any, 4)
	}
	s.attrs[k] = v
	return s
}

// Str sets a string attribute.
func (s *Span) Str(k, v string) *Span {
	if s == nil {
		return nil
	}
	return s.attr(k, v)
}

// Int sets an integer attribute.
func (s *Span) Int(k string, v int64) *Span {
	if s == nil {
		return nil
	}
	return s.attr(k, v)
}

// Dur sets a duration attribute in nanoseconds.
func (s *Span) Dur(k string, v time.Duration) *Span {
	if s == nil {
		return nil
	}
	return s.attr(k, int64(v))
}

// Bool sets a boolean attribute.
func (s *Span) Bool(k string, v bool) *Span {
	if s == nil {
		return nil
	}
	return s.attr(k, v)
}

// At overrides the span's virtual interval; deployment emits action
// spans after critical-path accounting has fixed their absolute virtual
// times.
func (s *Span) At(vstart, vend time.Time) *Span {
	if s == nil {
		return nil
	}
	s.vstart, s.vend = vstart, vend
	return s
}

// Wall overrides the measured wall duration (for post-hoc emission).
func (s *Span) Wall(d time.Duration) *Span {
	if s == nil {
		return nil
	}
	s.wall = d
	return s
}

// End closes the span and emits it. Virtual end defaults to the clock
// now; wall duration to the elapsed real time since the span started.
func (s *Span) End() {
	if s == nil {
		return
	}
	vstart := s.vstart.Round(0)
	vend := s.vend.Round(0)
	if s.vend.IsZero() {
		vend = s.t.now()
	}
	wall := s.wall
	if wall == 0 {
		wall = time.Since(s.wstart)
	}
	s.t.emit(&Line{
		Kind:   KindSpan,
		ID:     s.id,
		Parent: s.parent,
		Name:   s.name,
		VStart: &vstart,
		VEnd:   &vend,
		VDurNS: vend.Sub(vstart).Nanoseconds(),
		WallNS: wall.Nanoseconds(),
		Attrs:  s.attrs,
	})
}

// Event is one point-in-virtual-time record under construction.
// Attribute setters chain; Emit writes it. All methods are nil-safe.
type Event struct {
	t     *Tracer
	span  int64
	name  string
	vtime time.Time
	attrs map[string]any
}

// Event starts a free-standing event stamped at the clock now.
func (t *Tracer) Event(name string) *Event {
	if t == nil {
		return nil
	}
	return &Event{t: t, name: name, vtime: t.now()}
}

// Event starts an event attached to the span.
func (s *Span) Event(name string) *Event {
	if s == nil {
		return nil
	}
	ev := s.t.Event(name)
	ev.span = s.id
	return ev
}

func (e *Event) attr(k string, v any) *Event {
	if e == nil {
		return nil
	}
	if e.attrs == nil {
		e.attrs = make(map[string]any, 4)
	}
	e.attrs[k] = v
	return e
}

// Str sets a string attribute.
func (e *Event) Str(k, v string) *Event {
	if e == nil {
		return nil
	}
	return e.attr(k, v)
}

// Int sets an integer attribute.
func (e *Event) Int(k string, v int64) *Event {
	if e == nil {
		return nil
	}
	return e.attr(k, v)
}

// Dur sets a duration attribute in nanoseconds.
func (e *Event) Dur(k string, v time.Duration) *Event {
	if e == nil {
		return nil
	}
	return e.attr(k, int64(v))
}

// Bool sets a boolean attribute.
func (e *Event) Bool(k string, v bool) *Event {
	if e == nil {
		return nil
	}
	return e.attr(k, v)
}

// At overrides the event's virtual timestamp.
func (e *Event) At(vtime time.Time) *Event {
	if e == nil {
		return nil
	}
	e.vtime = vtime
	return e
}

// Emit writes the event.
func (e *Event) Emit() {
	if e == nil {
		return
	}
	e.t.emit(&Line{
		Kind:  KindEvent,
		ID:    e.t.id(),
		Span:  e.span,
		Name:  e.name,
		VTime: &e.vtime,
		Attrs: e.attrs,
	})
}
