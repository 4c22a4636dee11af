package service

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"blend/internal/berr"
)

// TestErrorStatusPerCode pins the HTTP status and the JSON code name that
// writeError emits for every typed error code.
func TestErrorStatusPerCode(t *testing.T) {
	want := map[berr.Code]int{
		berr.CodeUnknown:        http.StatusInternalServerError,
		berr.CodeBadPlan:        http.StatusBadRequest,
		berr.CodeUnknownNode:    http.StatusBadRequest,
		berr.CodeCanceled:       499,
		berr.CodeDeadline:       http.StatusGatewayTimeout,
		berr.CodeBadQuery:       http.StatusBadRequest,
		berr.CodeBadIndex:       http.StatusInternalServerError,
		berr.CodeBadRequest:     http.StatusBadRequest,
		berr.CodeNotFound:       http.StatusNotFound,
		berr.CodeInternal:       http.StatusInternalServerError,
		berr.CodeDuplicateTable: http.StatusConflict,
		berr.CodeGenerationGone: http.StatusGone,
	}
	for c := berr.CodeUnknown; c <= berr.CodeGenerationGone; c++ {
		status, ok := want[c]
		if !ok {
			t.Fatalf("code %v has no pinned status", c)
		}
		rec := httptest.NewRecorder()
		writeError(rec, berr.New(c, "test.op", "detail"))
		if rec.Code != status {
			t.Errorf("%v: status %d, want %d", c, rec.Code, status)
		}
		var body ErrorBody
		if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
			t.Fatalf("%v: body %q: %v", c, rec.Body.String(), err)
		}
		if body.Error.Code != c.String() || body.Error.Op != "test.op" {
			t.Errorf("%v: body %+v", c, body.Error)
		}
	}
}
