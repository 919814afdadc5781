package deploy

import (
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"

	"engage/internal/driver"
	"engage/internal/fault"
	"engage/internal/machine"
	"engage/internal/telemetry"
	"engage/internal/testlib"
)

// newFaultDeployment is newDeployment with a fault injector attached to
// the world and arbitrary option overrides.
func newFaultDeployment(t *testing.T, log *eventLog, inj machine.Injector, mutate func(*Options)) (*Deployment, *machine.World) {
	t.Helper()
	reg, err := testlib.OpenMRSRegistry()
	if err != nil {
		t.Fatal(err)
	}
	w := machine.NewWorld()
	if inj != nil {
		w.SetInjector(inj)
	}
	opts := Options{
		Registry:         reg,
		Drivers:          testDrivers(log),
		World:            w,
		Index:            testIndex(),
		ProvisionMissing: true,
	}
	if mutate != nil {
		mutate(&opts)
	}
	d, err := New(openmrsFull(t), opts)
	if err != nil {
		t.Fatal(err)
	}
	return d, w
}

// A fault that fails twice then succeeds is absorbed by FailRetry, and
// the backoff it cost shows up in Elapsed.
func TestRetryAbsorbsTransientFault(t *testing.T) {
	baseline, _ := newDeployment(t, &eventLog{}, false)
	if err := baseline.Deploy(); err != nil {
		t.Fatal(err)
	}

	plan := fault.NewPlan(1).FailTransient(machine.OpStartProcess, "", "mysql", 2)
	d, _ := newFaultDeployment(t, &eventLog{}, plan, func(o *Options) {
		o.OnFailure = FailRetry
	})
	if err := d.Deploy(); err != nil {
		t.Fatalf("retry should absorb a twice-transient fault: %v", err)
	}
	if !d.Deployed() {
		t.Fatalf("all drivers should be active: %v", d.Status())
	}
	if got := plan.Injections(); got != 2 {
		t.Errorf("Injections() = %d, want 2", got)
	}
	// Each failed attempt re-pays mysql's 10s start work, plus the
	// default backoffs (2s before attempt 2, 4s before attempt 3).
	wantExtra := 2*10*time.Second + 2*time.Second + 4*time.Second
	if got := d.Elapsed() - baseline.Elapsed(); got != wantExtra {
		t.Errorf("retry cost not visible in Elapsed: extra = %v, want %v", got, wantExtra)
	}
}

// A persistent fault under FailRollback restores the pre-deploy world:
// filesystems back to the snapshot, no processes, no claimed ports, and
// driver states reset.
func TestRollbackRestoresWorld(t *testing.T) {
	plan := fault.NewPlan(1).FailPersistent(machine.OpStartProcess, "", "openmrs")
	d, w := newFaultDeployment(t, &eventLog{}, plan, func(o *Options) {
		o.OnFailure = FailRollback
	})
	pre := SnapshotWorld(w)
	preStates := d.Status()

	err := d.Deploy()
	if err == nil {
		t.Fatal("deploy should fail under a persistent fault")
	}
	derr, ok := err.(*DeployError)
	if !ok {
		t.Fatalf("error should be *DeployError, got %T: %v", err, err)
	}
	if !derr.RolledBack || derr.RollbackErr != nil {
		t.Fatalf("RolledBack=%v RollbackErr=%v", derr.RolledBack, derr.RollbackErr)
	}
	if derr.Instance != "openmrs" || derr.Action != "start" {
		t.Errorf("failure attribution = %q/%q, want openmrs/start", derr.Instance, derr.Action)
	}
	if derr.Attempts != 3 {
		t.Errorf("Attempts = %d, want 3 (policy default)", derr.Attempts)
	}
	var fe *fault.Error
	if !errors.As(err, &fe) {
		t.Errorf("DeployError should unwrap to the injected *fault.Error: %v", err)
	}
	if len(derr.States) == 0 {
		t.Error("States should record per-instance terminal states")
	}

	// World invariants after rollback.
	for _, name := range w.Machines() {
		m, _ := w.Machine(name)
		if procs := m.Processes(); len(procs) != 0 {
			t.Errorf("machine %s: %d orphan process(es) after rollback", name, len(procs))
		}
		if ports := m.Ports(); len(ports) != 0 {
			t.Errorf("machine %s: orphan port claims %v after rollback", name, ports)
		}
	}
	post := SnapshotWorld(w)
	for name, st := range pre {
		if !reflect.DeepEqual(post[name].FS, st.FS) {
			t.Errorf("machine %s: filesystem not restored to pre-deploy snapshot", name)
		}
	}
	if !reflect.DeepEqual(d.Status(), preStates) {
		t.Errorf("driver states not reset: %v, want %v", d.Status(), preStates)
	}
}

// Abort (the default) keeps the historical semantics: one attempt, no
// rollback, partial state left in place.
func TestAbortLeavesPartialState(t *testing.T) {
	plan := fault.NewPlan(1).FailPersistent(machine.OpStartProcess, "", "openmrs")
	d, w := newFaultDeployment(t, &eventLog{}, plan, nil)
	err := d.Deploy()
	if err == nil {
		t.Fatal("deploy should fail")
	}
	derr, ok := err.(*DeployError)
	if !ok {
		t.Fatalf("error should be *DeployError, got %T", err)
	}
	if derr.RolledBack || derr.Attempts != 1 {
		t.Errorf("abort should not retry or roll back: %+v", derr)
	}
	// Partial state survives: mysql and tomcat are deployed and running.
	m, _ := w.Machine("server")
	if !m.Listening(3306) || !m.Listening(8080) {
		t.Error("abort should leave earlier instances running")
	}
}

// An action whose virtual-time cost exceeds ActionTimeout fails
// terminally even though it succeeded functionally.
func TestActionTimeout(t *testing.T) {
	d, _ := newFaultDeployment(t, &eventLog{}, nil, func(o *Options) {
		o.ActionTimeout = time.Minute // openmrs download alone is 4min
	})
	err := d.Deploy()
	if err == nil {
		t.Fatal("deploy should fail on timeout")
	}
	if !strings.Contains(err.Error(), "exceeded timeout") {
		t.Errorf("error should name the timeout: %v", err)
	}
}

// A deployment whose guard can never hold terminates with a structured
// deadlock error naming every blocked instance, through either entry
// point (regression: the concurrent engine used to block forever on
// cond.Wait, and Deploy reported only the first blocked action).
func TestDeployConcurrentDeadlock(t *testing.T) {
	for _, entry := range []struct {
		name   string
		deploy func(*Deployment) error
	}{
		{"DeployConcurrent", (*Deployment).DeployConcurrent},
		{"Deploy", (*Deployment).Deploy},
	} {
		t.Run(entry.name, func(t *testing.T) {
			reg, err := testlib.OpenMRSRegistry()
			if err != nil {
				t.Fatal(err)
			}
			drivers := testDrivers(&eventLog{})
			// Rebind MySQL's start to a guard no neighbour ever satisfies.
			drivers.RegisterName("MySQL", func(ctx *driver.Context) *driver.StateMachine {
				sm := driver.ServiceMachine(
					func(c *driver.Context) error { return nil },
					func(c *driver.Context) error { return nil },
					func(c *driver.Context) error { return nil },
					func(c *driver.Context) error { return nil },
					func(c *driver.Context) error { return nil },
				)
				for i := range sm.Actions {
					if sm.Actions[i].Name == "start" {
						sm.Actions[i].Guard = driver.Guard{{Dir: driver.Upstream, State: driver.State("quiesced")}}
					}
				}
				return sm
			})
			w := machine.NewWorld()
			d, err := New(openmrsFull(t), Options{
				Registry:         reg,
				Drivers:          drivers,
				World:            w,
				Index:            testIndex(),
				ProvisionMissing: true,
			})
			if err != nil {
				t.Fatal(err)
			}

			err = entry.deploy(d)
			if err == nil {
				t.Fatal("unsatisfiable guard must be reported, not hang")
			}
			derr, ok := err.(*DeployError)
			if !ok || !derr.Deadlock {
				t.Fatalf("want deadlock DeployError, got %T: %v", err, err)
			}
			var mysqlGuard string
			sawOpenMRS := false
			for _, b := range derr.Blocked {
				if strings.HasPrefix(b.Instance, "mysql") {
					mysqlGuard = b.Guard
				}
				if b.Instance == "openmrs" {
					sawOpenMRS = true
				}
			}
			if !strings.Contains(mysqlGuard, "quiesced") {
				t.Errorf("mysql should be reported blocked on its bogus guard; got %v", derr.Blocked)
			}
			if !sawOpenMRS {
				t.Errorf("openmrs (waiting on mysql) should be reported blocked; got %v", derr.Blocked)
			}
		})
	}
}

// An up-transition with a ↓ guard parks its instance until a later
// pass: MySQL starts only once OpenMRS has staged its schema, and
// OpenMRS finishes installing only once MySQL is active. Both entry
// points deploy the stack in two passes with one span per instance and
// one span, one event and one metric count per action fired.
func TestDeployParksUntilGuardHolds(t *testing.T) {
	const staged = driver.State("staged")
	for _, entry := range []struct {
		name   string
		deploy func(*Deployment) error
	}{
		{"DeployConcurrent", (*Deployment).DeployConcurrent},
		{"Deploy", (*Deployment).Deploy},
	} {
		t.Run(entry.name, func(t *testing.T) {
			log := &eventLog{}
			d, _, buf, metrics := newTracedDeployment(t, false)
			noop := func(*driver.Context) error { return nil }
			d.drivers["openmrs"].SM = &driver.StateMachine{
				States: []driver.State{driver.Uninstalled, staged, driver.Inactive, driver.Active},
				Actions: []driver.Action{
					{Name: "stage", From: driver.Uninstalled, To: staged, Run: func(*driver.Context) error {
						log.add("stage:openmrs")
						return nil
					}},
					{Name: "install", From: staged, To: driver.Inactive, Guard: driver.Guard{{Dir: driver.Upstream, State: driver.Active}}, Run: noop},
					{Name: "start", From: driver.Inactive, To: driver.Active, Guard: driver.Guard{{Dir: driver.Upstream, State: driver.Active}}, Run: noop},
				},
			}
			var mysqlID string
			for _, inst := range d.Instances() {
				if inst.Key.Name == "MySQL" {
					mysqlID = inst.ID
				}
			}
			mysql := d.drivers[mysqlID].SM
			for i := range mysql.Actions {
				if mysql.Actions[i].Name == "start" {
					mysql.Actions[i].Guard = driver.Guard{{Dir: driver.Downstream, State: staged}}
					mysql.Actions[i].Run = func(*driver.Context) error {
						log.add("start:mysql")
						return nil
					}
				}
			}

			if err := entry.deploy(d); err != nil {
				t.Fatal(err)
			}
			if !d.Deployed() {
				t.Fatalf("all drivers should be active: %v", d.Status())
			}
			if got := log.list(); !reflect.DeepEqual(got, []string{"stage:openmrs", "start:mysql"}) {
				t.Errorf("mysql must start after openmrs stages: %v", got)
			}
			trace, err := telemetry.ReadTrace(buf)
			if err != nil {
				t.Fatal(err)
			}
			if n := len(trace.Spans("deploy.instance")); n != len(d.Instances()) {
				t.Errorf("%d instance spans, want %d", n, len(d.Instances()))
			}
			actions := trace.Spans("deploy.action")
			if len(actions) != len(d.Events()) || metrics.Counter("deploy.actions").Value() != int64(len(actions)) {
				t.Errorf("%d action spans, %d events, %d counted actions",
					len(actions), len(d.Events()), metrics.Counter("deploy.actions").Value())
			}
			for _, isp := range trace.Spans("deploy.instance") {
				for _, asp := range trace.ChildSpans(isp.ID) {
					if asp.VStart.Before(*isp.VStart) || asp.VEnd.After(*isp.VEnd) {
						t.Errorf("action %s/%s span [%v, %v] outside instance [%v, %v]",
							asp.Str("instance"), asp.Str("action"), asp.VStart, asp.VEnd, isp.VStart, isp.VEnd)
					}
				}
			}
		})
	}
}

// A failed concurrent deploy reports the failing instance as a
// structured error with every instance's terminal state.
func TestDeployConcurrentFailureIsStructured(t *testing.T) {
	plan := fault.NewPlan(1).FailPersistent(machine.OpStartProcess, "", "mysql")
	d, _ := newFaultDeployment(t, &eventLog{}, plan, nil)
	err := d.DeployConcurrent()
	if err == nil {
		t.Fatal("deploy should fail")
	}
	derr, ok := err.(*DeployError)
	if !ok {
		t.Fatalf("error should be *DeployError, got %T: %v", err, err)
	}
	if !strings.HasPrefix(derr.Instance, "mysql") {
		t.Errorf("first failure should name the mysql instance, got %q", derr.Instance)
	}
	if len(derr.States) == 0 {
		t.Error("States should be populated")
	}
}

// Concurrent deployments honor FailRollback too.
func TestDeployConcurrentRollback(t *testing.T) {
	plan := fault.NewPlan(1).FailPersistent(machine.OpStartProcess, "", "openmrs")
	d, w := newFaultDeployment(t, &eventLog{}, plan, func(o *Options) {
		o.OnFailure = FailRollback
	})
	err := d.DeployConcurrent()
	if err == nil {
		t.Fatal("deploy should fail")
	}
	derr, ok := err.(*DeployError)
	if !ok || !derr.RolledBack || derr.RollbackErr != nil {
		t.Fatalf("want rolled-back DeployError, got %T: %v", err, err)
	}
	for _, name := range w.Machines() {
		m, _ := w.Machine(name)
		if len(m.Processes()) != 0 || len(m.Ports()) != 0 {
			t.Errorf("machine %s: orphans after concurrent rollback", name)
		}
	}
}
