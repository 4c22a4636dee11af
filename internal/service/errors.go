package service

import (
	"encoding/json"
	"errors"
	"net/http"

	"blend/internal/berr"
)

// httpStatus maps typed error codes onto HTTP statuses. Client-side plan
// and query defects are 4xx; cancellation distinguishes the client going
// away (499, nginx's convention) from the server-imposed deadline (504).
func httpStatus(code berr.Code) int {
	switch code {
	case berr.CodeBadPlan, berr.CodeUnknownNode, berr.CodeBadQuery, berr.CodeBadRequest:
		return http.StatusBadRequest
	case berr.CodeNotFound:
		return http.StatusNotFound
	case berr.CodeCanceled:
		return 499 // client closed request
	case berr.CodeDeadline:
		return http.StatusGatewayTimeout
	case berr.CodeDuplicateTable:
		return http.StatusConflict
	case berr.CodeGenerationGone:
		return http.StatusGone
	default:
		return http.StatusInternalServerError
	}
}

// writeError renders any error as the structured JSON body, deriving the
// status from the typed code. Errors without a code are 500 internals.
func writeError(w http.ResponseWriter, err error) {
	code := berr.CodeOf(err)
	info := ErrorInfo{Code: code.String(), Detail: err.Error()}
	var te *berr.Error
	if errors.As(err, &te) {
		info.Op = te.Op
		info.Detail = te.Detail
		// Keep the wrapped cause visible when the typed error carries no
		// detail of its own (e.g. wrapped context errors).
		if info.Detail == "" && te.Err != nil {
			info.Detail = te.Err.Error()
		}
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(httpStatus(code))
	json.NewEncoder(w).Encode(ErrorBody{Error: info})
}
