package main

// The fleet workload: one caller, closed loop. An op is the operator's
// configure → verify → deploy path on a fresh engine and a fresh world,
// through the program's stable entry points only.

import (
	"fmt"
	"runtime"
	"time"

	"engage/internal/certify"
	"engage/internal/config"
	"engage/internal/deploy"
	"engage/internal/lint"
	"engage/internal/machine"
	"engage/internal/pkgmgr"
	"engage/internal/spec"
	"engage/internal/typecheck"
)

// fleetOp is one op's timings.
type fleetOp struct {
	configure, verify, deploy time.Duration
}

func (o fleetOp) total() time.Duration { return o.configure + o.verify + o.deploy }

// runFleetOp configures, verifies and deploys one fleet, and checks the
// answer: no error-severity diagnostic from the independent checker and
// the recorded instance count.
func runFleetOp(f fleetInput, wantInstances *int) (fleetOp, error) {
	var op fleetOp
	t0 := time.Now()
	full, err := config.New(f.reg).Configure(f.partial)
	op.configure = time.Since(t0)
	if err != nil {
		return op, fmt.Errorf("configure fleet %d: %v", f.seed, err)
	}
	t1 := time.Now()
	diags := certify.CheckPlan(f.reg, f.partial, full)
	op.verify = time.Since(t1)
	t2 := time.Now()
	d, err := deploy.New(full, fleetDeployOptions(f))
	if err == nil {
		err = d.DeployConcurrent()
	}
	op.deploy = time.Since(t2)
	if err != nil {
		return op, fmt.Errorf("deploy fleet %d: %v", f.seed, err)
	}
	return op, checkFleetAnswer(f.seed, full, diags, wantInstances)
}

func fleetDeployOptions(f fleetInput) deploy.Options {
	return deploy.Options{
		Registry:         f.reg,
		Drivers:          deploy.NewDriverRegistry(),
		World:            machine.NewWorld(),
		Index:            pkgmgr.NewIndex(),
		ProvisionMissing: true,
	}
}

// checkFleetAnswer fails a plan the independent checker refutes or
// whose instance count differs from *wantInstances. A zero count is not
// yet known: the first answer for a seed pins.json does not list sets
// it, and every later op of the fleet is checked against that.
func checkFleetAnswer(seed int64, full *spec.Full, diags []lint.Diagnostic, wantInstances *int) error {
	for _, d := range diags {
		if d.Severity == lint.Error {
			return fmt.Errorf("fleet %d: plan refuted: %s", seed, d)
		}
	}
	if *wantInstances == 0 {
		*wantInstances = len(full.Instances)
	}
	if len(full.Instances) != *wantInstances {
		return fmt.Errorf("fleet %d: %d instances, recorded %d", seed, len(full.Instances), *wantInstances)
	}
	return nil
}

// fleetSetup is the fleet workload's set-up: typechecking the library
// and building an engine over it.
func fleetSetup(f fleetInput) (time.Duration, error) {
	t0 := time.Now()
	if err := typecheck.CheckTypes(f.reg); err != nil {
		return 0, err
	}
	_ = config.New(f.reg)
	return time.Since(t0), nil
}

// setupReps is how many set-ups a run times before its window and
// again after it; setup_s is the median of all of them.
const setupReps = 50

// timeFleetSetups appends setupReps set-up times in seconds to into,
// cycling the run's fleets. It collects first, so that the garbage of
// generating the fleets or of the window is not collected during the
// set-ups: a program sets up on a fresh heap.
func timeFleetSetups(fleets []fleetInput, into []float64) ([]float64, error) {
	runtime.GC()
	for i := 0; i < setupReps; i++ {
		d, err := fleetSetup(fleets[i%len(fleets)])
		if err != nil {
			return into, fmt.Errorf("fleet set-up: %v", err)
		}
		into = append(into, d.Seconds())
	}
	return into, nil
}

// runFleet is the untraced fleet run.
func runFleet(env *runEnv) (*result, error) {
	fleets, err := makeFleets(env.seed)
	if err != nil {
		return nil, err
	}
	want, err := env.fleetAnswers(fleets)
	if err != nil {
		return nil, err
	}
	setups, err := timeFleetSetups(fleets, nil)
	if err != nil {
		return nil, err
	}

	// One untimed op first, so the heap has grown to its working size.
	if _, err := runFleetOp(fleets[0], &want[0]); err != nil {
		return nil, err
	}

	res := &result{}
	cpu0, err := selfCPU()
	if err != nil {
		return nil, err
	}
	deadline := time.Now().Add(env.window)
	var lat, conf []float64
	for i := 0; i == 0 || time.Now().Before(deadline); i++ {
		k := i % len(fleets)
		res.attempted++
		op, err := runFleetOp(fleets[k], &want[k])
		lat = append(lat, ms(op.total()))
		conf = append(conf, op.configure.Seconds())
		if err != nil {
			res.fail(err)
		}
	}
	cpu1, err := selfCPU()
	if err != nil {
		return nil, err
	}
	if setups, err = timeFleetSetups(fleets, setups); err != nil {
		return nil, err
	}
	hwm, err := procStatusKB("self", "VmHWM")
	if err != nil {
		return nil, err
	}
	res.metrics = map[string]float64{
		"setup_s":        median(setups),
		"latency_p50_ms": percentile(lat, 50),
		"cpu_ms_per_req": ms(cpu1-cpu0) / float64(res.attempted),
		"rss_mb":         float64(hwm) / 1024,
		"configure_s":    median(conf),
	}
	return res, nil
}
