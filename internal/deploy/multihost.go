package deploy

import (
	"fmt"
	"time"

	"engage/internal/driver"
	"engage/internal/spec"
)

// MultiHost coordinates a deployment across several machines in the
// paper's master/slave style (§5.2): the overall install specification
// is broken into per-node specifications, a slave instance of Engage
// runs each node's specification with no awareness of the others, and
// the master orders the slaves by the machine partial order. Slaves
// with no inter-dependencies run in parallel (virtual time).
type MultiHost struct {
	// Order is the machine partial order linearized.
	Order []string
	// Slaves maps each machine to its per-node deployment.
	Slaves map[string]*Deployment

	machineDeps map[string][]string // machine → machines it must follow
	full        *spec.Full
	opts        Options
	elapsed     time.Duration
}

// NewMultiHost splits a full specification into per-machine slave
// deployments. Cross-machine dependency links are dropped from the
// slave specs (their port values are already propagated); the machine
// ordering preserves their sequencing, per the paper's simplifying
// assumption validated by MachineOrder.
func NewMultiHost(full *spec.Full, opts Options) (*MultiHost, error) {
	order, err := full.MachineOrder()
	if err != nil {
		return nil, err
	}
	mh := &MultiHost{
		Order:       order,
		Slaves:      make(map[string]*Deployment, len(order)),
		machineDeps: make(map[string][]string, len(order)),
		full:        full,
		opts:        opts,
	}

	// Machine-level dependency edges (same computation as MachineOrder).
	byID := make(map[string]*spec.Instance, len(full.Instances))
	for _, inst := range full.Instances {
		byID[inst.ID] = inst
	}
	depSet := make(map[string]map[string]bool, len(order))
	for _, m := range order {
		depSet[m] = make(map[string]bool)
	}
	for _, inst := range full.Instances {
		for _, depID := range inst.DependencyIDs() {
			dep := byID[depID]
			if dep == nil {
				continue
			}
			m1, m2 := machineOf(dep), machineOf(inst)
			if m1 != "" && m2 != "" && m1 != m2 {
				depSet[m2][m1] = true
			}
		}
	}
	for m, set := range depSet {
		for dep := range set {
			mh.machineDeps[m] = append(mh.machineDeps[m], dep)
		}
	}

	// Build slave specs and deployments. Rollback is a whole-site
	// transaction, so it is coordinated by the master (which snapshots
	// every machine before any slave runs): slaves are downgraded to
	// FailRetry so a failing slave keeps its retries but leaves the
	// cross-machine restore to MultiHost.Deploy.
	slaveOpts := opts
	slaveOpts.NoClockAdvance = true
	if slaveOpts.OnFailure == FailRollback {
		slaveOpts.OnFailure = FailRetry
	}
	for _, m := range order {
		sub := &spec.Full{}
		for _, inst := range full.OnMachine(m) {
			clone := *inst
			clone.Deps = nil
			for _, l := range inst.Deps {
				if target, ok := byID[l.Target]; ok && machineOf(target) == m {
					clone.Deps = append(clone.Deps, l)
				}
			}
			if in, ok := byID[inst.Inside]; ok && machineOf(in) != m {
				return nil, fmt.Errorf("deploy: instance %q is inside %q on a different machine", inst.ID, inst.Inside)
			}
			sub.Instances = append(sub.Instances, &clone)
		}
		slave, err := New(sub, slaveOpts)
		if err != nil {
			return nil, fmt.Errorf("deploy: slave for machine %q: %v", m, err)
		}
		mh.Slaves[m] = slave
	}
	return mh, nil
}

func machineOf(inst *spec.Instance) string {
	if inst.Machine != "" {
		return inst.Machine
	}
	if inst.Inside == "" {
		return inst.ID
	}
	return ""
}

// Deploy runs every slave in machine order. Total virtual time is the
// machine-graph critical path when opts.Parallel is set (independent
// slaves overlap), otherwise the sum of slave times.
//
// Under the FailRollback policy the master snapshots every machine
// before the first slave runs; a slave failure (after the slave's own
// retries) rolls the whole site back — machines deployed by earlier,
// successful slaves included — so a multihost deployment is atomic.
func (mh *MultiHost) Deploy() error {
	var snap MachineSnapshots
	var snapStates map[string]map[string]driver.State
	if mh.opts.OnFailure == FailRollback {
		snap = SnapshotWorld(mh.opts.World)
		snapStates = make(map[string]map[string]driver.State, len(mh.Slaves))
		for m, slave := range mh.Slaves {
			snapStates[m] = slave.Status()
		}
	}
	finish := make(map[string]time.Duration, len(mh.Order))
	var maxFinish time.Duration
	for _, m := range mh.Order {
		slave := mh.Slaves[m]
		err := slave.Deploy()
		// The slave's virtual start: in parallel mode the latest finish
		// among the machines it follows, in sequential mode the running
		// total. A failed slave is accounted too: its retries and
		// backoff consumed real (virtual) time.
		start := maxFinish
		if mh.opts.Parallel {
			start = 0
			for _, dep := range mh.machineDeps[m] {
				start = max(start, finish[dep])
			}
		}
		finish[m] = start + slave.Elapsed()
		maxFinish = max(maxFinish, finish[m])
		if err != nil {
			// Account what the site consumed up to the failure, then
			// restore if this deployment is transactional.
			mh.elapsed = maxFinish
			if !mh.opts.NoClockAdvance {
				mh.opts.World.Clock.Advance(mh.elapsed)
			}
			derr := asDeployError(err, m)
			if snap != nil {
				derr.RolledBack = true
				derr.RollbackErr = snap.Restore(mh.opts.World)
				for sm, states := range snapStates {
					for id, st := range states {
						if drv, ok := mh.Slaves[sm].drivers[id]; ok {
							drv.SetState(st)
						}
					}
				}
			}
			return fmt.Errorf("deploy: slave %q: %w", m, derr)
		}
	}
	mh.elapsed = maxFinish
	if !mh.opts.NoClockAdvance {
		mh.opts.World.Clock.Advance(mh.elapsed)
	}
	return nil
}

// Shutdown stops the slaves in reverse machine order.
func (mh *MultiHost) Shutdown() error {
	var total time.Duration
	for i := len(mh.Order) - 1; i >= 0; i-- {
		m := mh.Order[i]
		if err := mh.Slaves[m].Shutdown(); err != nil {
			return fmt.Errorf("deploy: slave %q shutdown: %w", m, err)
		}
		total += mh.Slaves[m].Elapsed()
	}
	mh.elapsed = total
	if !mh.opts.NoClockAdvance {
		mh.opts.World.Clock.Advance(total)
	}
	return nil
}

// Elapsed reports the virtual time of the last Deploy/Shutdown.
func (mh *MultiHost) Elapsed() time.Duration { return mh.elapsed }

// Deployed reports whether every slave is fully deployed.
func (mh *MultiHost) Deployed() bool {
	for _, s := range mh.Slaves {
		if !s.Deployed() {
			return false
		}
	}
	return true
}

// Status merges the slave statuses.
func (mh *MultiHost) Status() map[string]string {
	out := make(map[string]string)
	for _, s := range mh.Slaves {
		for id, st := range s.Status() {
			out[id] = string(st)
		}
	}
	return out
}
