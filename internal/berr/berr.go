// Package berr defines BLEND's typed error model. Every layer — plan
// validation in core, seeker execution, the minisql engine, index
// persistence, and the HTTP service — reports failures as *Error values
// carrying a stable Code, so callers dispatch with errors.Is/errors.As
// instead of string matching, and the service layer maps codes onto HTTP
// statuses and wire names mechanically.
//
// The package sits below every other blend package (it imports nothing but
// the standard library); the root blend package re-exports the type, the
// codes, and the sentinels as its public error surface.
package berr

import (
	"context"
	"errors"
	"fmt"
)

// Code classifies an error for programmatic handling. Codes are stable:
// the String form is the wire name used by the HTTP service.
type Code uint8

// Error codes.
const (
	// CodeUnknown marks errors that predate the typed model or carry no
	// classification.
	CodeUnknown Code = iota
	// CodeBadPlan reports a structurally invalid discovery plan: empty,
	// duplicate or missing node ids, cycles, malformed plan JSON, or
	// invalid operator parameters such as k <= 0 in a plan document.
	CodeBadPlan
	// CodeUnknownNode reports a reference to a plan node id that does not
	// exist (combiner inputs, the output selector).
	CodeUnknownNode
	// CodeCanceled reports an execution aborted by context cancellation.
	CodeCanceled
	// CodeDeadline reports an execution aborted by a context deadline.
	CodeDeadline
	// CodeBadQuery reports a raw SQL statement the minisql engine rejects,
	// at parse time or during execution.
	CodeBadQuery
	// CodeBadIndex reports a corrupt or unreadable persisted index file.
	CodeBadIndex
	// CodeBadRequest reports an invalid service request or CLI invocation
	// outside plan/query semantics (bad flags, malformed DTOs).
	CodeBadRequest
	// CodeNotFound reports a lookup of a resource that does not exist
	// (e.g. a table id beyond the catalog).
	CodeNotFound
	// CodeInternal reports an invariant violation inside the engine.
	CodeInternal
	// CodeDuplicateTable reports an ingest of a table whose name is
	// already indexed (or repeated within one batch).
	CodeDuplicateTable
	// CodeGenerationGone reports a time-travel query pinned to an index
	// generation that has fallen out of (or never entered) the engine's
	// retention window.
	CodeGenerationGone
)

// String returns the stable wire name of the code.
func (c Code) String() string {
	switch c {
	case CodeBadPlan:
		return "bad_plan"
	case CodeUnknownNode:
		return "unknown_node"
	case CodeCanceled:
		return "canceled"
	case CodeDeadline:
		return "deadline_exceeded"
	case CodeBadQuery:
		return "bad_query"
	case CodeBadIndex:
		return "bad_index"
	case CodeBadRequest:
		return "bad_request"
	case CodeNotFound:
		return "not_found"
	case CodeInternal:
		return "internal"
	case CodeDuplicateTable:
		return "duplicate_table"
	case CodeGenerationGone:
		return "generation_gone"
	default:
		return "unknown"
	}
}

// Error is BLEND's typed error: a code for dispatch, the operation that
// failed, and a human-readable detail. An Error may wrap a cause, so
// errors.Is also matches underlying sentinels such as context.Canceled.
type Error struct {
	// Code classifies the failure.
	Code Code
	// Op names the operation that failed, e.g. "plan.validate" or
	// "minisql.parse".
	Op string
	// Detail is the human-readable description.
	Detail string
	// Err is the wrapped cause, if any.
	Err error
}

// Error implements the error interface: "code: op: detail: cause" with
// empty parts omitted.
func (e *Error) Error() string {
	msg := e.Code.String()
	if e.Op != "" {
		msg += ": " + e.Op
	}
	if e.Detail != "" {
		msg += ": " + e.Detail
	}
	if e.Err != nil {
		msg += ": " + e.Err.Error()
	}
	return msg
}

// Unwrap exposes the cause to errors.Is/errors.As.
func (e *Error) Unwrap() error { return e.Err }

// Is matches sentinel errors by code: errors.Is(err, ErrBadPlan) holds for
// every Error whose Code is CodeBadPlan. Only bare sentinels (no op,
// detail, or cause) compare by code; fully populated Errors fall back to
// identity so two distinct failures never alias.
func (e *Error) Is(target error) bool {
	t, ok := target.(*Error)
	if !ok {
		return false
	}
	return t.Op == "" && t.Detail == "" && t.Err == nil && t.Code == e.Code
}

// Sentinels, one per code, for errors.Is dispatch. They carry no operation
// or detail; construct real errors with New or Wrap.
var (
	ErrBadPlan          = &Error{Code: CodeBadPlan}
	ErrUnknownNode      = &Error{Code: CodeUnknownNode}
	ErrCanceled         = &Error{Code: CodeCanceled}
	ErrDeadlineExceeded = &Error{Code: CodeDeadline}
	ErrBadQuery         = &Error{Code: CodeBadQuery}
	ErrBadIndex         = &Error{Code: CodeBadIndex}
	ErrBadRequest       = &Error{Code: CodeBadRequest}
	ErrNotFound         = &Error{Code: CodeNotFound}
	ErrInternal         = &Error{Code: CodeInternal}
	ErrDuplicateTable   = &Error{Code: CodeDuplicateTable}
	ErrGenerationGone   = &Error{Code: CodeGenerationGone}
)

// New builds a typed error from a format string.
func New(code Code, op, format string, args ...any) *Error {
	return &Error{Code: code, Op: op, Detail: fmt.Sprintf(format, args...)}
}

// Wrap attaches a code and operation to a cause. A nil cause returns nil.
// If the cause is already a typed Error, its code is preserved and only
// the operation context is added, so the original classification survives
// layer crossings.
func Wrap(code Code, op string, err error) error {
	if err == nil {
		return nil
	}
	var te *Error
	if errors.As(err, &te) {
		code = te.Code
	}
	return &Error{Code: code, Op: op, Err: err}
}

// FromContext converts a context error into the matching typed error,
// wrapping the original so errors.Is(err, context.Canceled) keeps working.
// A nil error returns nil.
func FromContext(op string, err error) error {
	switch {
	case err == nil:
		return nil
	case errors.Is(err, context.DeadlineExceeded):
		return &Error{Code: CodeDeadline, Op: op, Err: err}
	default:
		return &Error{Code: CodeCanceled, Op: op, Err: err}
	}
}

// CodeOf extracts the code of the first typed error in err's chain, or
// CodeUnknown when the chain carries none. Context errors classify as
// canceled/deadline even when nothing wrapped them.
func CodeOf(err error) Code {
	var te *Error
	if errors.As(err, &te) {
		return te.Code
	}
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		return CodeDeadline
	case errors.Is(err, context.Canceled):
		return CodeCanceled
	default:
		return CodeUnknown
	}
}
