package blend

import "blend/internal/berr"

// Error is BLEND's typed error: a stable Code for programmatic dispatch,
// the operation that failed, and a human-readable detail. Every failure
// surfaced by the public API — plan validation, seeker execution, raw SQL,
// index persistence, ingest — is (or wraps) an *Error, so callers
// use errors.Is against the sentinels below, or errors.As to inspect the
// fields, instead of matching message strings:
//
//	res, err := d.Run(ctx, plan)
//	switch {
//	case errors.Is(err, blend.ErrCanceled):   // the caller's ctx fired
//	case errors.Is(err, blend.ErrBadPlan):    // the plan never executed
//	}
//
// The HTTP service (cmd/blend-serve) maps these codes onto statuses and
// JSON error bodies mechanically, so library and wire errors agree.
type Error = berr.Error

// ErrorCode classifies an Error. Its String form is the stable wire name
// used by the HTTP service ("bad_plan", "canceled", …).
type ErrorCode = berr.Code

// Error codes.
const (
	// CodeUnknown marks unclassified errors.
	CodeUnknown = berr.CodeUnknown
	// CodeBadPlan reports a structurally invalid plan or plan document.
	CodeBadPlan = berr.CodeBadPlan
	// CodeUnknownNode reports a reference to an undeclared plan node id.
	CodeUnknownNode = berr.CodeUnknownNode
	// CodeCanceled reports execution aborted by context cancellation.
	CodeCanceled = berr.CodeCanceled
	// CodeDeadline reports execution aborted by a context deadline.
	CodeDeadline = berr.CodeDeadline
	// CodeBadQuery reports a rejected raw SQL statement.
	CodeBadQuery = berr.CodeBadQuery
	// CodeBadIndex reports a corrupt or unreadable index file.
	CodeBadIndex = berr.CodeBadIndex
	// CodeBadRequest reports an invalid service request or CLI call.
	CodeBadRequest = berr.CodeBadRequest
	// CodeNotFound reports a lookup of a missing resource.
	CodeNotFound = berr.CodeNotFound
	// CodeInternal reports an engine invariant violation.
	CodeInternal = berr.CodeInternal
	// CodeDuplicateTable reports an ingest whose table name is already
	// indexed (or repeated within one batch).
	CodeDuplicateTable = berr.CodeDuplicateTable
	// CodeGenerationGone reports a time-travel query (WithAsOf,
	// SnapshotAt) pinned to a generation outside the retention window.
	CodeGenerationGone = berr.CodeGenerationGone
)

// Sentinel errors for errors.Is dispatch, one per code.
var (
	// ErrBadPlan matches structurally invalid plans: empty or cyclic
	// DAGs, duplicate ids, malformed plan JSON, k <= 0 in documents.
	ErrBadPlan = berr.ErrBadPlan
	// ErrUnknownNode matches references to node ids that do not exist.
	ErrUnknownNode = berr.ErrUnknownNode
	// ErrCanceled matches executions aborted by context cancellation;
	// such errors also wrap context.Canceled.
	ErrCanceled = berr.ErrCanceled
	// ErrDeadlineExceeded matches executions aborted by a context
	// deadline (including WithDeadline run options); such errors also
	// wrap context.DeadlineExceeded.
	ErrDeadlineExceeded = berr.ErrDeadlineExceeded
	// ErrBadQuery matches raw SQL the embedded engine rejects.
	ErrBadQuery = berr.ErrBadQuery
	// ErrBadIndex matches corrupt or unreadable persisted indexes.
	ErrBadIndex = berr.ErrBadIndex
	// ErrBadRequest matches invalid service requests and CLI usage.
	ErrBadRequest = berr.ErrBadRequest
	// ErrNotFound matches lookups of resources that do not exist.
	ErrNotFound = berr.ErrNotFound
	// ErrInternal matches engine invariant violations.
	ErrInternal = berr.ErrInternal
	// ErrDuplicateTable matches ingests rejected because a table name is
	// already indexed or repeated within the batch.
	ErrDuplicateTable = berr.ErrDuplicateTable
	// ErrGenerationGone matches time-travel queries pinned to a
	// generation that has fallen out of (or never entered) the retention
	// window; the service maps it to HTTP 410 Gone.
	ErrGenerationGone = berr.ErrGenerationGone
)

// ErrorCodeOf extracts the code of the first typed error in err's chain,
// or CodeUnknown when it carries none. Bare context errors classify as
// canceled / deadline-exceeded.
func ErrorCodeOf(err error) ErrorCode { return berr.CodeOf(err) }
