package campaign

// Failure classification: the retry policy's brain. Every cell failure is
// partitioned into exactly one class, and only ClassTransient is ever
// retried. The default for an unrecognized error is ClassDeterministic —
// the simulator is deterministic by construction, so an unknown failure is
// far more likely to reproduce identically than to vanish, and failing fast
// beats a retry storm that re-runs a guaranteed-to-fail cell N times.

import (
	"context"
	"errors"
	"fmt"

	"invisispec/internal/invariant"
	"invisispec/internal/sim"
)

// Class partitions cell failures by how the campaign reacts to them.
type Class int

const (
	// ClassNone: the cell succeeded.
	ClassNone Class = iota
	// ClassTransient is a host-side failure — wall-clock timeout,
	// fault-seeded I/O — worth retrying under backoff: the
	// simulated outcome is unaffected by when or where the cell re-runs.
	ClassTransient
	// ClassDeterministic is a simulated outcome — budget exhaustion,
	// watchdog deadlock, invariant violation, divergence, panic inside the
	// deterministic simulator — that will reproduce identically on every
	// retry. The campaign fails the cell fast and records it as degraded.
	ClassDeterministic
	// ClassCancelled means the campaign itself was cancelled while the cell
	// ran (or before it started). Cancelled cells are neither retried nor
	// cached, so a rerun runs them.
	ClassCancelled
)

// String returns the class name degraded blocks record.
func (c Class) String() string {
	switch c {
	case ClassNone:
		return "ok"
	case ClassTransient:
		return "transient"
	case ClassDeterministic:
		return "deterministic"
	case ClassCancelled:
		return "cancelled"
	}
	return fmt.Sprintf("Class(%d)", int(c))
}

// ErrTransient marks host-side failures the retry policy may re-run. Cell
// implementations wrap it (fmt.Errorf("...: %w", campaign.ErrTransient))
// to flag their own transient conditions — fault-seeded I/O in tests, for
// example.
var ErrTransient = errors.New("transient failure")

// PanicError is a panic recovered inside an in-process cell run. The
// simulator is deterministic, so a panic reproduces on retry: deterministic.
type PanicError struct {
	Cell  string
	Value any
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("%s: panic: %v", e.Cell, e.Value)
}

// Classify maps a cell failure to its retry class:
//
//	nil                                  -> ClassNone
//	context.Canceled                     -> ClassCancelled (campaign shutdown)
//	context.DeadlineExceeded             -> ClassTransient (wall-clock timeout)
//	ErrTransient (fault-seeded I/O)      -> ClassTransient
//	sim.ErrCycleBudget                   -> ClassDeterministic
//	invariant.ErrDeadlock / ErrViolation -> ClassDeterministic
//	PanicError (a recovered panic)       -> ClassDeterministic
//	anything else                        -> ClassDeterministic (fail fast)
//
// The explicit deterministic rules are redundant with the default but are
// listed (and table-tested) so the taxonomy is visible in one place.
func Classify(err error) Class {
	if err == nil {
		return ClassNone
	}
	switch {
	case errors.Is(err, context.Canceled):
		return ClassCancelled
	case errors.Is(err, context.DeadlineExceeded):
		return ClassTransient
	case errors.Is(err, ErrTransient):
		return ClassTransient
	}
	var panicked *PanicError
	if errors.Is(err, sim.ErrCycleBudget) ||
		errors.Is(err, invariant.ErrDeadlock) ||
		errors.Is(err, invariant.ErrViolation) ||
		errors.As(err, &panicked) {
		return ClassDeterministic
	}
	return ClassDeterministic
}
