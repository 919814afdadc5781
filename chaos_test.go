package engage

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"testing"
	"time"

	"engage/internal/fault"
	"engage/internal/telemetry"
)

// chaosPartial is the quickstart OpenMRS stack — the §2 running example
// — used as the chaos-soak workload.
func chaosPartial() *Partial {
	p := NewPartial()
	p.Add("server", ParseKey("Mac-OSX 10.6")).Set("hostname", Str("demo"))
	p.Add("tomcat", ParseKey("Tomcat 6.0.18")).In("server")
	p.Add("openmrs", ParseKey("OpenMRS 1.8")).In("tomcat")
	return p
}

// checkChaosOutcome asserts the soak invariant: a deployment under
// chaos either completes with every driver active, or fails rolled
// back, leaving zero orphan processes and zero claimed ports on every
// machine.
func checkChaosOutcome(t *testing.T, sys *System, d *Deployment, err error, seed int64) {
	t.Helper()
	if err == nil {
		if d == nil || !d.Deployed() {
			t.Errorf("seed %d: deploy returned success but drivers are not all active", seed)
		}
		return
	}
	var derr *DeployError
	if !errors.As(err, &derr) {
		t.Errorf("seed %d: failure should be a structured *DeployError, got %T: %v", seed, err, err)
		return
	}
	if !derr.RolledBack {
		t.Errorf("seed %d: FailRollback deployment failed without rolling back: %v", seed, err)
	}
	if derr.RollbackErr != nil {
		t.Errorf("seed %d: rollback itself failed: %v", seed, derr.RollbackErr)
	}
	for _, name := range sys.World.Machines() {
		m, ok := sys.World.Machine(name)
		if !ok {
			continue
		}
		if procs := m.Processes(); len(procs) != 0 {
			t.Errorf("seed %d: machine %s: %d orphan process(es) after rollback", seed, name, len(procs))
		}
		if ports := m.Ports(); len(ports) != 0 {
			t.Errorf("seed %d: machine %s: orphan port claims %v after rollback", seed, name, ports)
		}
	}
}

// checkChaosTrace asserts the telemetry side of the soak invariant:
// the trace validates against the schema, records exactly the faults
// the plan injected, and — when the deployment failed — contains a
// fault-injection event for the failure's root cause, so a chaos
// failure is always explainable from its trace artifact alone.
func checkChaosTrace(t *testing.T, raw []byte, plan *FaultPlan, deployErr error, seed int64) {
	t.Helper()
	saveChaosTrace(t, raw)
	trace, err := ReadTrace(bytes.NewReader(raw))
	if err != nil {
		t.Errorf("seed %d: chaos trace does not validate: %v", seed, err)
		return
	}
	faults := trace.Events("fault.inject")
	if len(faults) != plan.Injections() {
		t.Errorf("seed %d: %d fault.inject events, plan injected %d",
			seed, len(faults), plan.Injections())
	}
	if deployErr == nil {
		return
	}
	var derr *DeployError
	if errors.As(deployErr, &derr) && derr.Deadlock {
		return // no failing action; nothing to match
	}
	var ferr *fault.Error
	if !errors.As(deployErr, &ferr) {
		t.Errorf("seed %d: chaos failure does not wrap *fault.Error: %v", seed, deployErr)
		return
	}
	for _, f := range faults {
		if telemetry.FaultOp(f) == ferr.Op.String() {
			return
		}
	}
	t.Errorf("seed %d: failure cause %q has no fault.inject event in the trace",
		seed, ferr.Op)
}

// saveChaosTrace appends a seed's trace to the $ENGAGE_CHAOS_TRACE
// artifact (JSON lines concatenate cleanly), so CI can upload one
// file covering the whole sweep.
func saveChaosTrace(t *testing.T, raw []byte) {
	t.Helper()
	path := os.Getenv("ENGAGE_CHAOS_TRACE")
	if path == "" {
		return
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatalf("chaos trace artifact: %v", err)
	}
	defer f.Close()
	if _, err := f.Write(raw); err != nil {
		t.Fatalf("chaos trace artifact: %v", err)
	}
}

// TestChaosSoakDeploy drives the OpenMRS stack through a seeded sweep
// of randomized fault schedules under the rollback policy. Every seed
// must satisfy the completes-or-rolls-back invariant; at least one seed
// in the sweep must exercise each side of it (so the test cannot
// silently degrade into all-pass or all-fail).
func TestChaosSoakDeploy(t *testing.T) {
	succeeded, rolledBack := 0, 0
	for seed := int64(0); seed < 20; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			sys, err := NewSystem()
			if err != nil {
				t.Fatal(err)
			}
			sys.OnFailure = FailRollback
			var buf bytes.Buffer
			tr := sys.StartTrace(&buf)
			plan := ChaosPlan(seed, 0.08, 0)
			sys.InjectFaults(plan)

			full, err := sys.Configure(chaosPartial())
			if err != nil {
				t.Fatal(err)
			}
			d, err := sys.Deploy(full)
			checkChaosOutcome(t, sys, d, err, seed)
			if terr := tr.Err(); terr != nil {
				t.Fatalf("seed %d: tracer error: %v", seed, terr)
			}
			checkChaosTrace(t, buf.Bytes(), plan, err, seed)
			if err == nil {
				succeeded++
			} else {
				rolledBack++
			}
		})
	}
	if succeeded == 0 || rolledBack == 0 {
		t.Errorf("sweep should exercise both outcomes: %d succeeded, %d rolled back", succeeded, rolledBack)
	}
}

// TestChaosSoakConcurrent repeats the soak through DeployConcurrent —
// the same guard-driven walk with critical-path virtual time — so the
// concurrent entry point keeps the completes-or-rolls-back invariant
// and a valid trace under injected failures.
func TestChaosSoakConcurrent(t *testing.T) {
	for seed := int64(100); seed < 110; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			sys, err := NewSystem()
			if err != nil {
				t.Fatal(err)
			}
			sys.OnFailure = FailRollback
			var buf bytes.Buffer
			tr := sys.StartTrace(&buf)
			plan := ChaosPlan(seed, 0.08, 0)
			sys.InjectFaults(plan)

			full, err := sys.Configure(chaosPartial())
			if err != nil {
				t.Fatal(err)
			}
			d, err := sys.DeployConcurrent(full)
			checkChaosOutcome(t, sys, d, err, seed)
			if terr := tr.Err(); terr != nil {
				t.Fatalf("seed %d: tracer error: %v", seed, terr)
			}
			checkChaosTrace(t, buf.Bytes(), plan, err, seed)
		})
	}
}

// TestChaosCriticalPathOracle checks parallel virtual-time accounting
// under retry backoff against an independent computation: for chaos
// seeds whose faults the retry policy absorbs, Elapsed is the longest
// dependency chain of per-instance virtual cost, each instance's cost
// read from its last recorded event.
func TestChaosCriticalPathOracle(t *testing.T) {
	retried := 0
	for seed := int64(0); seed < 20; seed++ {
		for _, concurrent := range []bool{false, true} {
			sys, err := NewSystem()
			if err != nil {
				t.Fatal(err)
			}
			sys.Parallel = true
			sys.OnFailure = FailRetry
			plan := ChaosPlan(seed, 0.08, 0)
			sys.InjectFaults(plan)
			full, err := sys.Configure(chaosPartial())
			if err != nil {
				t.Fatal(err)
			}
			deploy := sys.Deploy
			if concurrent {
				deploy = sys.DeployConcurrent
			}
			d, err := deploy(full)
			if err != nil {
				continue // a fault retries could not absorb: the soaks cover it
			}
			if plan.Injections() > 0 {
				retried++
			}
			spent := make(map[string]time.Duration)
			for _, ev := range d.Events() {
				spent[ev.Instance] = ev.Spent
			}
			finish := make(map[string]time.Duration)
			var chain func(id string) time.Duration
			chain = func(id string) time.Duration {
				if f, ok := finish[id]; ok {
					return f
				}
				inst, _ := full.Find(id)
				var start time.Duration
				for _, dep := range inst.DependencyIDs() {
					start = max(start, chain(dep))
				}
				finish[id] = start + spent[id]
				return finish[id]
			}
			var longest time.Duration
			for _, inst := range full.Instances {
				longest = max(longest, chain(inst.ID))
			}
			if d.Elapsed() != longest {
				t.Errorf("seed %d, concurrent=%v: Elapsed %v, longest dependency chain %v (%d faults retried)",
					seed, concurrent, d.Elapsed(), longest, plan.Injections())
			}
		}
	}
	if retried < 4 {
		t.Errorf("only %d successful deployments retried a fault; the oracle needs backoff to check", retried)
	}
}

// TestChaosReproducible replays one seed twice and demands the exact
// same injected-fault schedule — the property that makes chaos failures
// debuggable.
func TestChaosReproducible(t *testing.T) {
	run := func() ([]Op, error) {
		sys, err := NewSystem()
		if err != nil {
			t.Fatal(err)
		}
		sys.OnFailure = FailRollback
		plan := ChaosPlan(5, 0.1, 0)
		sys.InjectFaults(plan)
		full, err := sys.Configure(chaosPartial())
		if err != nil {
			t.Fatal(err)
		}
		_, derr := sys.Deploy(full)
		var ops []Op
		for _, ev := range plan.Events() {
			ops = append(ops, ev.Op)
		}
		return ops, derr
	}
	opsA, errA := run()
	opsB, errB := run()
	if (errA == nil) != (errB == nil) {
		t.Fatalf("same seed, different outcomes: %v vs %v", errA, errB)
	}
	if len(opsA) != len(opsB) {
		t.Fatalf("same seed, different fault counts: %d vs %d", len(opsA), len(opsB))
	}
	for i := range opsA {
		if opsA[i] != opsB[i] {
			t.Errorf("fault %d differs: %v vs %v", i, opsA[i], opsB[i])
		}
	}
}

// TestMonitorHealsCrashes closes the loop between fault injection and
// monitoring: processes crash on a virtual-time schedule, the monitor
// restarts them with backoff, and a crash-looping service is eventually
// marked degraded rather than restarted forever.
func TestMonitorHealsCrashes(t *testing.T) {
	sys, err := NewSystem()
	if err != nil {
		t.Fatal(err)
	}
	full, err := sys.Configure(chaosPartial())
	if err != nil {
		t.Fatal(err)
	}
	d, err := sys.Deploy(full)
	if err != nil {
		t.Fatal(err)
	}
	// Only after a clean deploy, schedule every process started from now
	// on (i.e., the monitor's restarts) to crash after 30 virtual
	// seconds, and crash the running tomcat daemon to start the loop.
	sys.InjectFaults(NewFaultPlan(9).CrashAfter("", "", 30*time.Second))

	mon := sys.Monitor(d)
	if len(mon.Watched()) == 0 {
		t.Fatal("expected daemon-backed services to be watched")
	}
	drv, ok := d.Driver("tomcat")
	if !ok {
		t.Fatal("no tomcat driver")
	}
	pid, ok := drv.Ctx.PID("daemon")
	if !ok {
		t.Fatal("tomcat driver recorded no daemon PID")
	}
	if err := drv.Ctx.Machine.KillProcess(pid); err != nil {
		t.Fatal(err)
	}
	// Each restart is itself scheduled to crash, so the service
	// crash-loops until the monitor gives up and marks it degraded.
	degraded := false
	for sweep := 0; sweep < 2*mon.MaxRestarts+2 && !degraded; sweep++ {
		for _, ev := range mon.Check() {
			if ev.Degraded {
				degraded = true
			}
		}
		sys.World.Clock.Advance(31 * time.Second)
	}
	if !degraded {
		t.Error("crash-looping service should be marked degraded within the restart budget")
	}
	if got := mon.Degraded(); len(got) != 1 || got[0] != "tomcat" {
		t.Errorf("Degraded() should name tomcat, got %v", got)
	}
}
