package kv

import (
	"errors"
	"fmt"
)

// Error taxonomy for the resilience layer. Store errors fall into three
// kinds that retry logic must distinguish:
//
//   - transient: the operation failed but the store may recover; a retry
//     is allowed. The failure happened BEFORE the operation took effect
//     unless the error is also outcome-unknown.
//   - outcome-unknown: the caller cannot tell whether the operation was
//     applied (a timeout, a connection lost after the request was sent).
//     Retrying is safe only for idempotent operations — never for Merge,
//     whose replay would duplicate the operand.
//   - fatal: everything else; retrying will not help.
//
// ErrNotFound and ErrMergeUnsupported are part of the Store contract,
// not failures, and are never classified by these helpers.

// Sentinel errors produced by the resilience wrappers.
var (
	// ErrInjectedFault is returned by ChaosStore for an injected transient
	// error. The contract is fail-before-apply: the wrapped operation was
	// NOT executed, so retrying any operation — including Merge — is safe.
	ErrInjectedFault = errors.New("kv: injected chaos fault")
	// ErrDeadlineExceeded is returned by ResilientStore when an operation
	// exceeds its per-op deadline. The operation may still complete in the
	// background, so the outcome is unknown.
	ErrDeadlineExceeded = errors.New("kv: store operation deadline exceeded")
	// ErrBreakerOpen is returned by ResilientStore while its circuit
	// breaker is open: the operation was rejected without reaching the
	// store (fail-fast, no effect).
	ErrBreakerOpen = errors.New("kv: circuit breaker open")
)

// transientError marks an error as transient (retryable).
type transientError struct{ err error }

func (e *transientError) Error() string   { return e.err.Error() }
func (e *transientError) Unwrap() error   { return e.err }
func (e *transientError) Transient() bool { return true }

// TransientError wraps err so Transient reports true for it. A nil err
// returns nil.
func TransientError(err error) error {
	if err == nil {
		return nil
	}
	return &transientError{err: err}
}

// Transient reports whether err is marked transient: it wraps one of the
// transient sentinels or any error in its chain implements
// `Transient() bool` returning true.
func Transient(err error) bool {
	if err == nil {
		return false
	}
	if errors.Is(err, ErrInjectedFault) || errors.Is(err, ErrDeadlineExceeded) || errors.Is(err, ErrBreakerOpen) {
		return true
	}
	var t interface{ Transient() bool }
	return errors.As(err, &t) && t.Transient()
}

// unknownOutcomeError marks an error whose operation may have applied.
type unknownOutcomeError struct{ err error }

func (e *unknownOutcomeError) Error() string        { return e.err.Error() }
func (e *unknownOutcomeError) Unwrap() error        { return e.err }
func (e *unknownOutcomeError) OutcomeUnknown() bool { return true }

// UnknownOutcomeError wraps err so OutcomeUnknown reports true for it.
// A nil err returns nil.
func UnknownOutcomeError(err error) error {
	if err == nil {
		return nil
	}
	return &unknownOutcomeError{err: err}
}

// OutcomeUnknown reports whether the failed operation may nevertheless
// have taken effect (so a non-idempotent retry could duplicate it).
func OutcomeUnknown(err error) bool {
	if err == nil {
		return false
	}
	if errors.Is(err, ErrDeadlineExceeded) {
		return true
	}
	var u interface{ OutcomeUnknown() bool }
	return errors.As(err, &u) && u.OutcomeUnknown()
}

// RetrySafe reports whether retrying op after err cannot duplicate or
// drop effects: the error must be transient, and for non-idempotent
// operations (Merge) the failed attempt must be known to have had no
// effect. This is the single decision point the resilience layer and
// any external retry loop must share.
func RetrySafe(op Op, err error) bool {
	if !Transient(err) {
		return false
	}
	if op == OpMerge && OutcomeUnknown(err) {
		return false
	}
	return true
}

// ResilienceCounters aggregates the observable side effects of a
// ResilientStore (and anything else that retries): how often the
// happy path was left. All counts are cumulative since construction.
type ResilienceCounters struct {
	// Retries is the number of retry attempts issued (excluding each
	// operation's first attempt).
	Retries uint64
	// Timeouts is the number of attempts that exceeded the per-op deadline.
	Timeouts uint64
	// BreakerTrips is the number of closed/half-open -> open transitions.
	BreakerTrips uint64
	// FastFails is the number of operations rejected while the breaker
	// was open.
	FastFails uint64
	// Degraded is the number of operations that ultimately failed after
	// exhausting their retry budget.
	Degraded uint64
}

func (c ResilienceCounters) String() string {
	return fmt.Sprintf("retries=%d timeouts=%d trips=%d fastfails=%d degraded=%d",
		c.Retries, c.Timeouts, c.BreakerTrips, c.FastFails, c.Degraded)
}

// ResilienceReporter is implemented by stores that track resilience
// counters. The performance evaluator does not probe for it: a run's
// Result reads the same counts from the "resilient.*" metrics every
// wrapper merges, so they survive any stack.
type ResilienceReporter interface {
	ResilienceCounters() ResilienceCounters
}
