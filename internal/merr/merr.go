// Package merr is the typed error taxonomy shared by every layer of the
// reproduction. Package boundaries (the hm simulator, the task runtime,
// the training pipeline, the policy registry and the public surface) wrap
// their failures in an *Error carrying one of the sentinel kinds below, so
// callers classify failures with errors.Is instead of string matching:
//
//	if errors.Is(err, merr.ErrCapacity) { ... }
//
// An *Error unwraps to both its kind and its cause (multi-error Unwrap),
// so a canceled run satisfies errors.Is(err, merr.ErrCanceled) AND
// errors.Is(err, context.Canceled) at the same time.
package merr

import (
	"context"
	"errors"
	"fmt"
)

// Sentinel kinds. Each classifies one failure family across the codebase.
var (
	// ErrCanceled marks a run, training round or evaluation aborted by
	// its context. The cause (context.Canceled or
	// context.DeadlineExceeded) is wrapped alongside it.
	ErrCanceled = errors.New("merchandiser: canceled")
	// ErrCapacity marks a memory tier running out of pages during
	// allocation or migration.
	ErrCapacity = errors.New("merchandiser: tier capacity exhausted")
	// ErrUntrained marks a model that cannot be trained or used (too few
	// samples, predict before fit).
	ErrUntrained = errors.New("merchandiser: model untrained")
	// ErrBadSpec marks an invalid platform specification.
	ErrBadSpec = errors.New("merchandiser: invalid system spec")
	// ErrBadApp marks an invalid application definition (no tasks, zero
	// object sizes, dangling references).
	ErrBadApp = errors.New("merchandiser: invalid application")
	// ErrUnknownPolicy marks a policy name absent from the registry.
	ErrUnknownPolicy = errors.New("merchandiser: unknown policy")
	// ErrBadArtifact marks a saved artifact that cannot be decoded: wrong
	// magic, unsupported schema version, truncated sections, checksum
	// mismatches, or payloads that fail strict validation.
	ErrBadArtifact = errors.New("merchandiser: bad artifact")
	// ErrNotReady marks a serving component asked to do work before its
	// artifact (trained system) has been loaded.
	ErrNotReady = errors.New("merchandiser: not ready")
)

// Error is a classified error: a taxonomy kind, the human-readable
// message, and an optional wrapped cause.
type Error struct {
	Kind error  // one of the sentinels above
	Msg  string // message, formatted exactly as the pre-taxonomy errors were
	Err  error  // wrapped cause, may be nil
}

// Error implements error. The string is the message (plus the cause, if
// any) — the kind does not repeat in the text, keeping messages identical
// to the pre-taxonomy fmt.Errorf output.
func (e *Error) Error() string {
	switch {
	case e.Err == nil:
		return e.Msg
	case e.Msg == "":
		return e.Err.Error()
	default:
		return e.Msg + ": " + e.Err.Error()
	}
}

// Unwrap exposes both the kind and the cause to errors.Is/As.
func (e *Error) Unwrap() []error {
	out := make([]error, 0, 2)
	if e.Kind != nil {
		out = append(out, e.Kind)
	}
	if e.Err != nil {
		out = append(out, e.Err)
	}
	return out
}

// Errorf builds a classified error with a formatted message.
func Errorf(kind error, format string, args ...any) error {
	return &Error{Kind: kind, Msg: fmt.Sprintf(format, args...)}
}

// Wrap classifies an existing error under kind with a message prefix.
// A nil err yields a message-only classified error.
func Wrap(kind error, msg string, err error) error {
	return &Error{Kind: kind, Msg: msg, Err: err}
}

// Canceled wraps a context's termination error (context.Canceled or
// context.DeadlineExceeded) as an ErrCanceled with the given message.
func Canceled(msg string, cause error) error {
	return &Error{Kind: ErrCanceled, Msg: msg, Err: cause}
}

// FromContext returns a Canceled error if ctx is done, else nil. It is
// the one-line cancellation check used at tick, instance, region and
// fold boundaries.
func FromContext(ctx context.Context, msg string) error {
	if ctx == nil {
		return nil
	}
	if err := ctx.Err(); err != nil {
		return Canceled(msg, err)
	}
	return nil
}
