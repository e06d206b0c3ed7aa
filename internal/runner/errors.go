package runner

import (
	"fmt"
	"strings"
)

// JobPanicError is a panic recovered inside a worker, converted into an
// ordinary job failure so one bad job can never tear down the pool (or
// the batch, in KeepGoing mode). Value is the recovered panic value and
// Stack the goroutine stack captured at recovery time.
type JobPanicError struct {
	Label string
	Index int
	Value any
	Stack []byte
}

func (e *JobPanicError) Error() string {
	return fmt.Sprintf("job %q (index %d) panicked: %v", e.Label, e.Index, e.Value)
}

// JobFailure is one failed job inside a BatchError, identified by its
// submission index so callers can map failures back onto their grids.
type JobFailure struct {
	Index int
	Label string
	Err   error
}

// BatchError aggregates every job failure of a KeepGoing batch. The
// batch ran to completion: Failures is ordered by submission index (not
// completion order), so its message is deterministic at any worker
// count. Unwrap exposes the individual job errors to errors.Is/As.
type BatchError struct {
	Failures []JobFailure
	Total    int // jobs in the batch
}

func (e *BatchError) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "runner: %d of %d jobs failed:", len(e.Failures), e.Total)
	for _, f := range e.Failures {
		fmt.Fprintf(&b, "\n  job %q: %v", f.Label, f.Err)
	}
	return b.String()
}

// Unwrap returns the individual job errors, making
// errors.Is(batchErr, target) and errors.As work across all failures.
func (e *BatchError) Unwrap() []error {
	errs := make([]error, len(e.Failures))
	for i, f := range e.Failures {
		errs[i] = f.Err
	}
	return errs
}

// CancelError reports a batch aborted by caller cancellation, with a
// summary of how far it got: Done jobs completed (their results are
// populated), Queued jobs never started. It wraps the context error, so
// errors.Is(err, context.Canceled) still holds.
type CancelError struct {
	Done   int
	Queued int
	Total  int
	Err    error // the context's error (Canceled or DeadlineExceeded)
}

func (e *CancelError) Error() string {
	return fmt.Sprintf("runner: batch cancelled after %d/%d jobs (%d never started): %v",
		e.Done, e.Total, e.Queued, e.Err)
}

func (e *CancelError) Unwrap() error { return e.Err }
