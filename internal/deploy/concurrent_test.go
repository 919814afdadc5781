package deploy

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"engage/internal/config"
	"engage/internal/driver"
	"engage/internal/machine"
	"engage/internal/pkgmgr"
	"engage/internal/spec"
	"engage/internal/testlib"
	"engage/internal/workload"
)

func TestDeployConcurrentOpenMRS(t *testing.T) {
	log := &eventLog{}
	d, w := newDeployment(t, log, true)
	if err := d.DeployConcurrent(); err != nil {
		t.Fatal(err)
	}
	if !d.Deployed() {
		t.Fatalf("all drivers should be active: %v", d.Status())
	}
	m, _ := w.Machine("server")
	if !m.Listening(3306) || !m.Listening(8080) {
		t.Error("services should be listening")
	}

	// Ordering invariants: starts respect the guard discipline.
	mysqlID := ""
	for _, inst := range d.Instances() {
		if inst.Key.Name == "MySQL" {
			mysqlID = inst.ID
		}
	}
	if log.indexOf("start:tomcat") > log.indexOf("start:openmrs") {
		t.Error("tomcat must start before openmrs")
	}
	if log.indexOf("start:"+mysqlID) > log.indexOf("start:openmrs") {
		t.Error("mysql must start before openmrs")
	}
	if log.indexOf("install:tomcat") > log.indexOf("start:tomcat") {
		t.Error("tomcat must install before starting")
	}

	// Critical-path accounting matches Deploy's parallel mode.
	logB := &eventLog{}
	det, _ := newDeployment(t, logB, true)
	if err := det.Deploy(); err != nil {
		t.Fatal(err)
	}
	if d.Elapsed() != det.Elapsed() {
		t.Errorf("concurrent elapsed %v != deterministic parallel elapsed %v",
			d.Elapsed(), det.Elapsed())
	}
}

func TestDeployConcurrentRepeatable(t *testing.T) {
	// The walk is deterministic: every run deploys the whole system and
	// fires the same actions in the same order.
	var first []string
	for i := 0; i < 10; i++ {
		log := &eventLog{}
		d, _ := newDeployment(t, log, true)
		if err := d.DeployConcurrent(); err != nil {
			t.Fatal(err)
		}
		if !d.Deployed() {
			t.Fatalf("iteration %d: %v", i, d.Status())
		}
		if i == 0 {
			first = log.list()
		} else if got := log.list(); !reflect.DeepEqual(got, first) {
			t.Fatalf("iteration %d fired %v, first run fired %v", i, got, first)
		}
		if err := d.Shutdown(); err != nil {
			t.Fatal(err)
		}
	}
}

// DeployConcurrent and Deploy with the Parallel option are one engine:
// on the OpenMRS stack and on seeded operator-scale fleets they record
// the same actions, reach the same states in the same virtual time, and
// leave the same processes and ports on every machine.
func TestDeployConcurrentMatchesParallelDeploy(t *testing.T) {
	type deployment struct {
		name string
		full *spec.Full
		opts func() Options
	}
	var cases []deployment
	reg, err := testlib.OpenMRSRegistry()
	if err != nil {
		t.Fatal(err)
	}
	cases = append(cases, deployment{"openmrs", openmrsFull(t), func() Options {
		return Options{Registry: reg, Drivers: testDrivers(&eventLog{}), World: machine.NewWorld(),
			Index: testIndex(), ProvisionMissing: true}
	}})
	for seed := int64(16); seed < 19; seed++ {
		fleet := workload.Spec{Seed: seed, Families: 20, Versions: 4, EnvFanout: 3, PeerFanout: 1, Machines: 16, Instances: 5}
		freg, partial, err := workload.Generate(fleet)
		if err != nil {
			t.Fatal(err)
		}
		full, err := config.New(freg).Configure(partial)
		if err != nil {
			t.Fatal(err)
		}
		name := fmt.Sprintf("%s/seed=%d", fleet, seed)
		cases = append(cases, deployment{name, full, func() Options {
			return Options{Registry: freg, Drivers: NewDriverRegistry(), World: machine.NewWorld(),
				Index: pkgmgr.NewIndex(), ProvisionMissing: true}
		}})
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			run := func(parallel bool, deploy func(*Deployment) error) (*Deployment, *machine.World) {
				opts := c.opts()
				opts.Parallel = parallel
				d, err := New(c.full, opts)
				if err != nil {
					t.Fatal(err)
				}
				if err := deploy(d); err != nil {
					t.Fatal(err)
				}
				return d, opts.World
			}
			conc, cw := run(false, (*Deployment).DeployConcurrent)
			par, pw := run(true, (*Deployment).Deploy)
			if len(par.Events()) == 0 {
				t.Fatal("Deploy recorded no events")
			}
			if !reflect.DeepEqual(conc.Events(), par.Events()) {
				t.Errorf("events differ:\nconcurrent %v\nparallel   %v", conc.Events(), par.Events())
			}
			if !reflect.DeepEqual(conc.Status(), par.Status()) {
				t.Errorf("states differ:\nconcurrent %v\nparallel   %v", conc.Status(), par.Status())
			}
			if conc.Elapsed() != par.Elapsed() {
				t.Errorf("elapsed: concurrent %v, parallel %v", conc.Elapsed(), par.Elapsed())
			}
			if got, want := services(cw), services(pw); !reflect.DeepEqual(got, want) {
				t.Errorf("services differ:\nconcurrent %v\nparallel   %v", got, want)
			}
		})
	}
}

// services lists every machine's running processes and claimed ports.
func services(w *machine.World) map[string][]string {
	out := make(map[string][]string)
	for _, name := range w.Machines() {
		m, _ := w.Machine(name)
		for _, p := range m.Processes() {
			out[name] = append(out[name], fmt.Sprintf("pid %d %s %q ports %v", p.PID, p.Name, p.Command, p.Ports))
		}
		out[name] = append(out[name], fmt.Sprintf("ports %v", m.Ports()))
	}
	return out
}

func TestDeployConcurrentFailurePropagates(t *testing.T) {
	reg, err := testlib.OpenMRSRegistry()
	if err != nil {
		t.Fatal(err)
	}
	dr := testDrivers(&eventLog{})
	// Override MySQL with a failing installer.
	dr.RegisterName("MySQL", func(ctx *driver.Context) *driver.StateMachine {
		return driver.ServiceMachine(
			func(*driver.Context) error { return errFailingDisk },
			nil, nil, nil, nil)
	})
	w := machine.NewWorld()
	d, err := New(openmrsFull(t), Options{
		Registry: reg, Drivers: dr, World: w, Index: testIndex(), ProvisionMissing: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	err = d.DeployConcurrent()
	if err == nil || !strings.Contains(err.Error(), "failing disk") {
		t.Errorf("failure should propagate: %v", err)
	}
	if d.Deployed() {
		t.Error("failed concurrent deploy must not report deployed")
	}
}

var errFailingDisk = errDisk{}

type errDisk struct{}

func (errDisk) Error() string { return "failing disk" }
