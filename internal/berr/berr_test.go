package berr

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"
)

func TestSentinelMatching(t *testing.T) {
	err := New(CodeBadPlan, "plan.add", "duplicate node id %q", "x")
	if !errors.Is(err, ErrBadPlan) {
		t.Fatal("constructed error must match its sentinel")
	}
	if errors.Is(err, ErrBadQuery) {
		t.Fatal("codes must not cross-match")
	}
	var te *Error
	if !errors.As(err, &te) || te.Code != CodeBadPlan || te.Op != "plan.add" {
		t.Fatalf("errors.As = %+v", te)
	}
}

func TestTwoPopulatedErrorsDoNotAlias(t *testing.T) {
	a := New(CodeBadPlan, "op", "a")
	b := New(CodeBadPlan, "op", "b")
	if errors.Is(a, b) {
		t.Fatal("populated errors must not compare by code")
	}
}

func TestWrapPreservesInnerCode(t *testing.T) {
	inner := New(CodeUnknownNode, "plan.validate", "no node %q", "ghost")
	outer := Wrap(CodeBadPlan, "service.query", inner)
	if !errors.Is(outer, ErrUnknownNode) {
		t.Fatal("wrap must preserve the inner classification")
	}
	if CodeOf(outer) != CodeUnknownNode {
		t.Fatalf("CodeOf = %v", CodeOf(outer))
	}
	if Wrap(CodeBadPlan, "op", nil) != nil {
		t.Fatal("wrapping nil must stay nil")
	}
}

func TestFromContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := FromContext("run", ctx.Err())
	if !errors.Is(err, ErrCanceled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled context maps badly: %v", err)
	}
	dctx, dcancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer dcancel()
	<-dctx.Done()
	derr := FromContext("run", dctx.Err())
	if !errors.Is(derr, ErrDeadlineExceeded) || !errors.Is(derr, context.DeadlineExceeded) {
		t.Fatalf("deadline context maps badly: %v", derr)
	}
	if FromContext("run", nil) != nil {
		t.Fatal("nil maps to nil")
	}
}

func TestCodeOfPlainError(t *testing.T) {
	if CodeOf(fmt.Errorf("plain")) != CodeUnknown {
		t.Fatal("plain errors have no code")
	}
	if CodeOf(fmt.Errorf("wrapped: %w", context.Canceled)) != CodeCanceled {
		t.Fatal("bare context.Canceled classifies as canceled")
	}
}

func TestErrorString(t *testing.T) {
	err := &Error{Code: CodeBadQuery, Op: "minisql.parse", Detail: "unexpected token"}
	want := "bad_query: minisql.parse: unexpected token"
	if err.Error() != want {
		t.Fatalf("Error() = %q, want %q", err.Error(), want)
	}
	for c := CodeUnknown; c <= CodeInternal; c++ {
		if c.String() == "" {
			t.Fatalf("code %d has no name", c)
		}
	}
}

// TestCodeWireNames pins the String form of every code: it is the wire
// name the HTTP service and the CLIs emit, while the numeric values are
// never persisted or sent, so codes may be renumbered but not renamed.
func TestCodeWireNames(t *testing.T) {
	want := map[Code]string{
		CodeUnknown:        "unknown",
		CodeBadPlan:        "bad_plan",
		CodeUnknownNode:    "unknown_node",
		CodeCanceled:       "canceled",
		CodeDeadline:       "deadline_exceeded",
		CodeBadQuery:       "bad_query",
		CodeBadIndex:       "bad_index",
		CodeBadRequest:     "bad_request",
		CodeNotFound:       "not_found",
		CodeInternal:       "internal",
		CodeDuplicateTable: "duplicate_table",
		CodeGenerationGone: "generation_gone",
	}
	for c := CodeUnknown; c <= CodeGenerationGone; c++ {
		name, ok := want[c]
		if !ok {
			t.Fatalf("code %d has no pinned wire name", c)
		}
		if c.String() != name {
			t.Errorf("code %d: String() = %q, want %q", c, c.String(), name)
		}
	}
	if got := (CodeGenerationGone + 1).String(); got != "unknown" {
		t.Fatalf("a code past CodeGenerationGone is named %q: pin it here", got)
	}
}
