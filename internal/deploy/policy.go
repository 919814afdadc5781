// This file implements the engine's failure policies: per-action retry
// with exponential backoff charged as virtual time, per-action
// timeouts, a transactional rollback mode that restores every machine's
// pre-deploy filesystem and kills spawned processes, and the structured
// DeployError that reports per-instance terminal states.

package deploy

import (
	"fmt"
	"strings"
	"time"

	"engage/internal/driver"
	"engage/internal/machine"
)

// FailurePolicy selects what Deploy does when a driver action fails
// terminally (after retries, if any).
type FailurePolicy int

// The failure policies.
const (
	// FailAbort returns on the first error, leaving the world as the
	// failure left it (the engine's historical behavior).
	FailAbort FailurePolicy = iota
	// FailRetry retries failed actions per the RetryPolicy, then aborts,
	// leaving partial state in place.
	FailRetry
	// FailRollback retries per the RetryPolicy, then restores every
	// machine's pre-deploy filesystem, kills every process spawned by
	// the deployment (releasing its ports), and resets driver states —
	// deploy-as-transaction.
	FailRollback
)

func (p FailurePolicy) String() string {
	switch p {
	case FailAbort:
		return "abort"
	case FailRetry:
		return "retry"
	case FailRollback:
		return "rollback"
	default:
		return fmt.Sprintf("policy(%d)", int(p))
	}
}

// RetryPolicy bounds per-action retries. Backoff between attempts is
// charged to the failing instance's cost sink as virtual time, so
// critical-path accounting stays honest about what failures cost.
type RetryPolicy struct {
	// MaxAttempts is the total number of tries per action (1 = no
	// retry). Zero means: 1 under FailAbort, 3 under FailRetry and
	// FailRollback.
	MaxAttempts int
	// Backoff is the virtual-time wait before the second attempt
	// (default 2s when retrying).
	Backoff time.Duration
	// Multiplier grows the backoff per attempt (default 2).
	Multiplier float64
	// MaxBackoff caps a single backoff (0 = uncapped).
	MaxBackoff time.Duration
}

// resolve fills defaults given the failure policy in force.
func (r RetryPolicy) resolve(policy FailurePolicy) RetryPolicy {
	if r.MaxAttempts <= 0 {
		if policy == FailAbort {
			r.MaxAttempts = 1
		} else {
			r.MaxAttempts = 3
		}
	}
	if r.Backoff <= 0 {
		r.Backoff = 2 * time.Second
	}
	if r.Multiplier < 1 {
		r.Multiplier = 2
	}
	return r
}

// Resolved returns the policy with defaults filled for the given
// failure policy (the exported face of resolve, for callers outside
// the engine that share the retry discipline).
func (r RetryPolicy) Resolved(policy FailurePolicy) RetryPolicy { return r.resolve(policy) }

// Wait returns the backoff after the attempt-th failure (1-based).
func (r RetryPolicy) Wait(attempt int) time.Duration { return r.backoff(attempt) }

// backoff returns the wait after the attempt-th failure (1-based),
// growing exponentially and capped by MaxBackoff.
func (r RetryPolicy) backoff(attempt int) time.Duration {
	d := r.Backoff
	for i := 1; i < attempt; i++ {
		d = time.Duration(float64(d) * r.Multiplier)
	}
	if r.MaxBackoff > 0 && d > r.MaxBackoff {
		d = r.MaxBackoff
	}
	return d
}

// BlockedInstance names one instance stuck on an unsatisfied guard when
// a deployment deadlocks.
type BlockedInstance struct {
	Instance string
	Action   string
	Guard    string
}

// DeployError is the structured error of a failed deployment: which
// action on which instance failed after how many attempts, every
// instance's terminal state, whether the world was rolled back, and the
// blocked instances of a detected deadlock.
type DeployError struct {
	// Instance and Action identify the failure ("" for deadlocks, which
	// have no failing action).
	Instance string
	Action   string
	// Attempts is how many times the failing action was tried.
	Attempts int
	// Err is the underlying driver/substrate error (nil for deadlocks).
	Err error
	// States records every instance's terminal state at failure time
	// (before any rollback).
	States map[string]driver.State
	// Deadlock is set when every unfinished instance was blocked on a
	// guard that could never become true; Blocked names them in
	// dependency order.
	Deadlock bool
	Blocked  []BlockedInstance
	// RolledBack reports that the FailRollback policy restored the
	// world; RollbackErr is non-nil if that restoration itself failed.
	RolledBack  bool
	RollbackErr error
	// Policy is the failure policy that was in force, so the message can
	// state the terminal outcome (aborted vs rolled back).
	Policy FailurePolicy
}

func (e *DeployError) Error() string {
	var b strings.Builder
	if e.Deadlock {
		fmt.Fprintf(&b, "deploy: deadlock: %d instance(s) blocked on guards that can never hold:", len(e.Blocked))
		for _, bl := range e.Blocked {
			fmt.Fprintf(&b, " [%s: action %q awaits %s]", bl.Instance, bl.Action, bl.Guard)
		}
	} else {
		fmt.Fprintf(&b, "deploy: instance %q", e.Instance)
		if e.Action != "" {
			fmt.Fprintf(&b, ": action %q", e.Action)
		}
		if e.Attempts == 1 {
			b.WriteString(" failed after 1 attempt")
		} else if e.Attempts > 1 {
			fmt.Fprintf(&b, " failed after %d attempts", e.Attempts)
		} else {
			b.WriteString(" failed")
		}
		if e.Err != nil {
			fmt.Fprintf(&b, ": %v", e.Err)
		}
	}
	if e.RolledBack {
		if e.RollbackErr != nil {
			fmt.Fprintf(&b, " [rollback FAILED: %v]", e.RollbackErr)
		} else {
			b.WriteString(" [rolled back]")
		}
	} else if !e.Deadlock {
		fmt.Fprintf(&b, " [aborted; policy %s]", e.Policy)
	}
	return b.String()
}

// Unwrap exposes the underlying cause to errors.Is/As.
func (e *DeployError) Unwrap() error { return e.Err }

// asDeployError coerces an error from the drive layer into a
// *DeployError, attributing it to the given instance when it is not
// already structured.
func asDeployError(err error, instance string) *DeployError {
	if derr, ok := err.(*DeployError); ok {
		return derr
	}
	return &DeployError{Instance: instance, Err: err}
}

// MachineState is one machine's captured state: a deep filesystem
// snapshot plus the set of PIDs that were running.
type MachineState struct {
	FS   map[string]machine.File
	PIDs map[int]bool
}

// MachineSnapshots captures every machine of a world before a
// deployment; Restore reinstates it. The upgrade framework shares this
// with the FailRollback policy so both kill orphaned processes, not
// just restore files.
type MachineSnapshots map[string]MachineState

// SnapshotWorld captures the filesystem and process table of every
// machine currently in the world.
func SnapshotWorld(w *machine.World) MachineSnapshots {
	snap := make(MachineSnapshots)
	for _, name := range w.Machines() {
		m, ok := w.Machine(name)
		if !ok {
			continue
		}
		pids := make(map[int]bool)
		for _, p := range m.Processes() {
			pids[p.PID] = true
		}
		snap[name] = MachineState{FS: m.Snapshot(), PIDs: pids}
	}
	return snap
}

// Restore rolls every machine back to its captured state: processes
// started since the snapshot are stopped (releasing their ports) and
// the filesystem is restored. Machines created after the snapshot are
// emptied but left registered (a provisioned server outliving a failed
// deploy, as on a real cloud). Returns the first error encountered,
// continuing best-effort.
func (snap MachineSnapshots) Restore(w *machine.World) error {
	var firstErr error
	for _, name := range w.Machines() {
		m, ok := w.Machine(name)
		if !ok {
			continue
		}
		st, had := snap[name]
		for _, p := range m.Processes() {
			if !had || !st.PIDs[p.PID] {
				if err := m.StopProcess(p.PID); err != nil && firstErr == nil {
					firstErr = err
				}
			}
		}
		if had {
			m.Restore(st.FS)
		} else {
			m.Restore(nil)
		}
	}
	return firstErr
}

// worldSnapshot pairs machine snapshots with the deployment's driver
// states so a rollback can reset both.
type worldSnapshot struct {
	machines MachineSnapshots
	states   map[string]driver.State
}

func (d *Deployment) snapshotWorld() *worldSnapshot {
	return &worldSnapshot{machines: SnapshotWorld(d.opts.World), states: d.Status()}
}

// rollbackWorld restores machines and driver states from a pre-deploy
// snapshot.
func (d *Deployment) rollbackWorld(snap *worldSnapshot) error {
	err := snap.machines.Restore(d.opts.World)
	for id, st := range snap.states {
		if drv, ok := d.drivers[id]; ok {
			drv.SetState(st)
		}
	}
	return err
}
