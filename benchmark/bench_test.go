package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"engage/internal/lint"
	"engage/internal/spec"
)

func TestPercentile(t *testing.T) {
	xs := []float64{9, 1, 8, 2, 7, 3, 6, 4, 5, 10}
	for _, c := range []struct{ p, want float64 }{
		{50, 5}, {90, 9}, {99, 10}, {100, 10}, {10, 1}, {1, 1},
	} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
	if xs[0] != 9 {
		t.Errorf("percentile sorted its input in place")
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of an even count = %v, want 2.5", got)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median of an odd count = %v, want 2", got)
	}
}

func TestSelfTime(t *testing.T) {
	t0 := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	at := func(a, b int) interval {
		return interval{t0.Add(time.Duration(a) * time.Millisecond), t0.Add(time.Duration(b) * time.Millisecond)}
	}
	parent := at(0, 100)
	for _, c := range []struct {
		name     string
		children []interval
		want     time.Duration
	}{
		{"no children", nil, 100 * time.Millisecond},
		{"disjoint", []interval{at(10, 20), at(50, 80)}, 60 * time.Millisecond},
		{"overlapping counted once", []interval{at(10, 40), at(30, 60)}, 50 * time.Millisecond},
		{"nested", []interval{at(10, 90), at(20, 30)}, 20 * time.Millisecond},
		{"clipped to the parent", []interval{at(-50, 10), at(95, 200)}, 85 * time.Millisecond},
		{"outside the parent", []interval{at(150, 200)}, 100 * time.Millisecond},
		{"touching", []interval{at(0, 50), at(50, 100)}, 0},
	} {
		if got := selfTime(parent, c.children); got != c.want {
			t.Errorf("%s: selfTime = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestLogLogSlope(t *testing.T) {
	// y = 3 x^2 exactly.
	xs := []float64{10, 100, 1000}
	ys := []float64{300, 30000, 3000000}
	got, err := logLogSlope(xs, ys)
	if err != nil || math.Abs(got-2) > 1e-9 {
		t.Fatalf("slope of 3x^2 = %v, %v; want 2", got, err)
	}
	// A measured GraphGen ladder on a 2-core Xeon: 32 ms at 218 nodes, 493 ms at
	// 758 and 7.35 s at 2381 fit a slope of about 2.3.
	got, err = logLogSlope([]float64{218, 758, 2381}, []float64{32, 493, 7350})
	if err != nil || math.Abs(got-2.28) > 0.02 {
		t.Fatalf("slope of the measured ladder = %v, %v; want about 2.28", got, err)
	}
	for _, bad := range [][2][]float64{
		{{1}, {1}},
		{{1, 2}, {1}},
		{{5, 5}, {1, 2}},
		{{0, 2}, {1, 2}},
		{{1, 2}, {-1, 2}},
	} {
		if _, err := logLogSlope(bad[0], bad[1]); err == nil {
			t.Errorf("logLogSlope(%v, %v) did not fail", bad[0], bad[1])
		}
	}
}

func TestParseProcStatCPU(t *testing.T) {
	// Field 2 holds spaces and a ')'; utime 250 and stime 50 ticks.
	stat := "4242 (engage (serve) x) S 1 4242 4242 0 -1 4194560 1523 0 0 0 250 50 0 0 20 0 7 0 12345 1000000 2000 18446744073709551615"
	got, err := parseProcStatCPU(stat)
	if err != nil || got != 3*time.Second {
		t.Fatalf("parseProcStatCPU = %v, %v; want 3s", got, err)
	}
	for _, bad := range []string{"", "4242 engage S 1", "4242 (engage) S 1 2 3", "4242 (e) S 1 2 3 4 5 6 7 8 9 10 x 0", "4242 (e) S 1 2 3 4 5 6 7 8 9 10 5 y"} {
		if _, err := parseProcStatCPU(bad); err == nil {
			t.Errorf("parseProcStatCPU(%q) did not fail", bad)
		}
	}
	// The real file of this process parses.
	if _, err := selfCPU(); err != nil {
		t.Fatal(err)
	}
}

func TestParseProcStatusKB(t *testing.T) {
	status := "Name:\tengage\nVmPeak:\t  20000 kB\nVmHWM:\t   13744 kB\nVmRSS:\t   13000 kB\n"
	if got, err := parseProcStatusKB(status, "VmHWM"); err != nil || got != 13744 {
		t.Fatalf("VmHWM = %v, %v; want 13744", got, err)
	}
	if _, err := parseProcStatusKB(status, "VmSwap"); err == nil {
		t.Error("a missing field did not fail")
	}
	if _, err := parseProcStatusKB("VmHWM: 12 MB\n", "VmHWM"); err == nil {
		t.Error("a field not in kB did not fail")
	}
}

// TestWrongAnswersFail feeds each answer check a response that differs
// from the recorded answer in one field, as a wrong program would.
func TestWrongAnswersFail(t *testing.T) {
	want := &servePins{
		ConfigureInstances: []int{5, 6, 5},
		DeployVirtualNs:    []int64{920e9, 1025e9, 920e9},
		UnsatCore:          []string{"pin jdk", "pin jre", "pin tomcat", "tomcat exactly-one java"},
		ApplyInstances:     []int{6, 6},
	}
	conf := plannedReq{kind: kindWarm, idx: 1, path: "/v1/configure"}
	unsat := plannedReq{kind: kindUnsat, path: "/v1/configure"}
	dep := plannedReq{kind: kindDeploy, idx: 1, path: "/v1/deploy"}
	apply := plannedReq{kind: kindApply, idx: 0, path: "/v1/stacks/s3"}
	for _, c := range []struct {
		name   string
		pr     plannedReq
		status int
		body   string
		ok     bool
	}{
		{"configure right", conf, 200, `{"instances": 6}`, true},
		{"configure instance count", conf, 200, `{"instances": 5}`, false},
		{"configure status", conf, 500, `{"error": {"code": "internal"}}`, false},
		{"unsat right", unsat, 422, `{"error": {"code": "unsat", "core": ["tomcat exactly-one java", "pin jre", "pin jdk", "pin tomcat"]}}`, true},
		{"unsat core member", unsat, 422, `{"error": {"code": "unsat", "core": ["pin jdk", "pin jre", "pin tomcat", "pin server"]}}`, false},
		{"unsat core size", unsat, 422, `{"error": {"code": "unsat", "core": ["pin jdk", "pin jre", "pin tomcat"]}}`, false},
		{"unsat answered 200", unsat, 200, `{"instances": 6}`, false},
		{"deploy right", dep, 200, `{"elapsed_virtual_ns": 1025000000000}`, true},
		{"deploy makespan", dep, 200, `{"elapsed_virtual_ns": 920000000000}`, false},
		{"apply right", apply, 200, `{"version": 4, "instances": 6}`, true},
		{"apply instance count", apply, 200, `{"version": 4, "instances": 7}`, false},
		{"undecodable", conf, 200, `<html>`, false},
	} {
		stack, version, err := checkAnswer(c.pr, c.status, []byte(c.body), want)
		if (err == nil) != c.ok {
			t.Errorf("%s: err = %v, want ok=%v", c.name, err, c.ok)
		}
		if c.ok && c.pr.kind == kindApply && (stack != 3 || version != 4) {
			t.Errorf("%s: stack %d version %d, want 3 and 4", c.name, stack, version)
		}
	}

	full := &spec.Full{Instances: make([]*spec.Instance, 254)}
	right, wrong := 254, 255
	if err := checkFleetAnswer(1, full, nil, &right); err != nil {
		t.Errorf("right fleet answer failed: %v", err)
	}
	if err := checkFleetAnswer(1, full, nil, &wrong); err == nil {
		t.Error("a wrong fleet instance count passed")
	}
	refuted := []lint.Diagnostic{{Code: "plan-constraint", Severity: lint.Error}}
	if err := checkFleetAnswer(1, full, refuted, &right); err == nil {
		t.Error("a plan the checker refuted passed")
	}
	if err := checkFleetAnswer(1, full, []lint.Diagnostic{{Code: "unused-output", Severity: lint.Warning}}, &right); err != nil {
		t.Errorf("a warning failed the fleet answer: %v", err)
	}
	// An unpinned seed: the first answer sets the count, later ones
	// must match it.
	unknown := 0
	if err := checkFleetAnswer(1, full, nil, &unknown); err != nil || unknown != 254 {
		t.Errorf("first answer of an unpinned fleet: err %v, count %d", err, unknown)
	}
	if err := checkFleetAnswer(1, &spec.Full{Instances: make([]*spec.Instance, 253)}, nil, &unknown); err == nil {
		t.Error("a later answer that differs from the first passed")
	}
}

func TestCheckVersions(t *testing.T) {
	outs := []outcome{
		{kind: kindApply, stack: 0, version: 2},
		{kind: kindApply, stack: 0, version: 1},
		{kind: kindApply, stack: 1, version: 1},
		{kind: kindApply, stack: 1, version: 3}, // version 2 never granted
		{kind: kindWarm},
	}
	checkVersions(outs)
	var failed []int
	for i, o := range outs {
		if o.err != nil {
			failed = append(failed, i)
		}
	}
	if len(failed) != 1 || failed[0] != 3 {
		t.Fatalf("failed outcomes %v, want [3]", failed)
	}
}

func TestPlanRequests(t *testing.T) {
	sb := makeServeBodies()
	mixed := mixedTraffic
	a := planRequests(mixed, 7, 6000, sb)
	b := planRequests(mixed, 7, 6000, sb)
	var counts [numKinds]int
	hosts := map[string]bool{}
	for i := range a {
		if a[i].kind != b[i].kind || string(a[i].body) != string(b[i].body) {
			t.Fatalf("request %d differs between two plans of one seed", i)
		}
		counts[a[i].kind]++
		if a[i].kind == kindCold {
			if hosts[string(a[i].body)] {
				t.Fatalf("cold request %d repeats a body", i)
			}
			hosts[string(a[i].body)] = true
		}
	}
	for k, share := range mixed.share {
		got := float64(counts[k]) / float64(len(a))
		if math.Abs(got-share) > 0.02 {
			t.Errorf("%s share %.3f, want %.2f", kindNames[k], got, share)
		}
	}
	for _, r := range planRequests(warmTraffic, 7, 300, sb) {
		if r.kind != kindWarm {
			t.Fatalf("warm traffic planned a %s request", kindNames[r.kind])
		}
	}
}

// TestPinnedInputs fails when the generated inputs no longer hash to
// the digests in pins.json, which is what a run of a pinned seed checks.
func TestPinnedInputs(t *testing.T) {
	pins, err := readPins("..")
	if err != nil {
		t.Fatal(err)
	}
	if got := makeServeBodies().digest(); got != pins.Serve.SHA256 {
		t.Errorf("serve bodies hash to %s, pinned %s", got, pins.Serve.SHA256)
	}
	fleets, err := makeFleets(1)
	if err != nil {
		t.Fatal(err)
	}
	got, err := fleetDigest(fleets)
	if err != nil {
		t.Fatal(err)
	}
	if want := pins.Fleet["1"].SHA256; got != want {
		t.Errorf("seed 1 fleets hash to %s, pinned %s", got, want)
	}
}

// TestLayerTableMatchesBenchmarkJSON keeps BENCHMARK.json's per-layer
// list and layerMetrics, which documents it, in step.
func TestLayerTableMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	if len(bf.PerLayer) != len(layerMetrics) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, layerMetrics %d", len(bf.PerLayer), len(layerMetrics))
	}
	for i, m := range layerMetrics {
		d := bf.PerLayer[i]
		if d.Name != m.name || d.Unit != m.unit || d.Better != m.better {
			t.Errorf("per-layer %d: BENCHMARK.json %+v, layerMetrics %s %s %s", i, d, m.name, m.unit, m.better)
		}
		names := false
		for _, e := range bf.EndToEnd {
			names = names || strings.HasPrefix(m.moves, e.Name+" ") || strings.Contains(m.moves, " "+e.Name+" ")
		}
		if m.module == "" || !(names && strings.Contains(m.moves, " on ")) && !strings.HasPrefix(m.moves, "none:") {
			t.Errorf("%s: module %q moves %q must name a module and an end-to-end metric on a workload", m.name, m.module, m.moves)
		}
	}
}
