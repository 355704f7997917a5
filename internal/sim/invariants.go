package sim

import (
	"fmt"
	"sync/atomic"
)

// Invariants is the kernel's self-check harness. It is off by default —
// production sweeps pay nothing for it — and is switched on per engine with
// Engine.EnableInvariants, or for a whole test binary with
// SetDefaultInvariants (typically from TestMain).
//
// Checks never draw random numbers and never advance the clock, so enabling
// them cannot perturb a trace: a run with invariants on produces bit-identical
// results to the same run with them off.
//
// Two modes:
//   - fail-fast (tests): the first violation panics with its message, so the
//     offending event is at the top of the stack.
//   - recording (chaos campaigns, modisazure -chaos): violations accumulate
//     and are reported at the end of the run; the campaign itself continues.
type Invariants struct {
	failFast   bool
	violations []string
	dropped    uint64 // violations beyond maxViolations, counted not stored
}

// maxViolations bounds recording-mode memory: a systemic bug firing once per
// event would otherwise hoard the whole run's event log as strings.
const maxViolations = 256

// defaultInvariants selects the mode NewEngine starts in: 0 = off,
// 1 = fail-fast. Read atomically so parallel test packages can flip it in
// TestMain before any engine exists.
var defaultInvariants atomic.Int32

// SetDefaultInvariants makes every subsequently constructed Engine start with
// fail-fast invariant checking enabled (or disabled again). Test packages
// across the repo call this from TestMain so that every simulation run in the
// suite is continuously checked.
func SetDefaultInvariants(on bool) {
	if on {
		defaultInvariants.Store(1)
	} else {
		defaultInvariants.Store(0)
	}
}

// EnableInvariants switches invariant checking on for this engine and returns
// the harness. failFast selects panic-on-violation; recording mode (false)
// collects violations for later inspection. Calling it again returns the
// existing harness (the mode of the first call wins).
func (e *Engine) EnableInvariants(failFast bool) *Invariants {
	if e.inv == nil {
		e.inv = &Invariants{failFast: failFast}
	}
	return e.inv
}

// Invariants returns the engine's harness, or nil when checking is off. The
// nil result is safe to use: all Invariants methods are nil-receiver no-ops,
// so call sites read eng.Invariants().Checkf(...) without a guard.
func (e *Engine) Invariants() *Invariants { return e.inv }

// Checkf records a violation when ok is false. In fail-fast mode it panics
// with the formatted message; in recording mode it appends to the violation
// log. A nil receiver (checking disabled) does nothing — but arguments are
// evaluated either way, and the variadic ones are boxed into interfaces on
// every call, passing or not. Hot-path callers therefore test the
// condition themselves and call Checkf(false, ...) only when it fails.
func (inv *Invariants) Checkf(ok bool, format string, args ...any) {
	if inv == nil || ok {
		return
	}
	msg := fmt.Sprintf(format, args...)
	if inv.failFast {
		panic("sim: invariant violated: " + msg)
	}
	if len(inv.violations) < maxViolations {
		inv.violations = append(inv.violations, msg)
	} else {
		inv.dropped++
	}
}

// Violations returns a copy of the recorded violation messages (recording
// mode; fail-fast panics before anything is recorded). Nil receiver returns
// nil.
func (inv *Invariants) Violations() []string {
	if inv == nil {
		return nil
	}
	out := make([]string, len(inv.violations))
	copy(out, inv.violations)
	return out
}

// ViolationCount returns the total number of violations observed, including
// any dropped beyond the recording cap. Nil receiver returns 0.
func (inv *Invariants) ViolationCount() uint64 {
	if inv == nil {
		return 0
	}
	return uint64(len(inv.violations)) + inv.dropped
}
