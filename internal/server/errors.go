// The service's error surface: every handler failure is one JSON envelope,
//
//	{"error": {"code": "...", "message": "...", "field": "..."}}
//
// with a stable machine-readable code, the human-readable message, and —
// when the failure is a typed field validation (trainer.FieldError,
// query.FieldError) — the offending field, so clients can map errors back
// to their request without parsing messages.
package server

import (
	"errors"
	"fmt"
	"net/http"
	"strings"

	"datastall/internal/query"
	"datastall/internal/trainer"
)

// Error codes carried in the envelope.
const (
	// codeBadRequest: the request body or query document is invalid.
	codeBadRequest = "bad_request"
	// codeNotFound: the named job or spec does not exist.
	codeNotFound = "not_found"
	// codeTooLarge: the request body exceeds the byte limit.
	codeTooLarge = "too_large"
	// codeQueueFull: the bounded submission queue has no room.
	codeQueueFull = "queue_full"
	// codeDraining: the server is shutting down and refuses new work.
	codeDraining = "draining"
	// codeConflict: the job's state forbids the operation (e.g. cancelling
	// a terminal job).
	codeConflict = "conflict"
	// codeQuotaExceeded: the tenant is at its active-job quota.
	codeQuotaExceeded = "quota_exceeded"
	// codeInternal: anything the server cannot attribute to the request.
	codeInternal = "internal"
)

// errorBody is the envelope payload.
type errorBody struct {
	Code    string `json:"code"`
	Message string `json:"message"`
	Field   string `json:"field,omitempty"`
}

// writeErr writes the error envelope with no field attribution.
func writeErr(w http.ResponseWriter, status int, code, format string, args ...interface{}) {
	writeErrField(w, status, code, "", fmt.Sprintf(format, args...))
}

func writeErrField(w http.ResponseWriter, status int, code, field, msg string) {
	writeJSON(w, status, map[string]errorBody{
		"error": {Code: code, Message: msg, Field: field},
	})
}

// writeErrFrom writes err as an envelope, recovering the offending field
// from the typed validation errors the engine layers return.
func writeErrFrom(w http.ResponseWriter, status int, code string, err error) {
	field := ""
	var tfe *trainer.FieldError
	var qfe *query.FieldError
	switch {
	case errors.As(err, &tfe):
		field = tfe.Field
	case errors.As(err, &qfe):
		field = qfe.Field
	}
	var ee *entryError
	if errors.As(err, &ee) {
		field = strings.TrimSuffix(fmt.Sprintf("jobs[%d].%s", ee.index, field), ".")
	}
	writeErrField(w, status, code, field, err.Error())
}

// entryError attributes a failure to one entry of a submission's jobs list.
type entryError struct {
	index int
	err   error
}

func (e *entryError) Error() string { return fmt.Sprintf("jobs[%d]: %v", e.index, e.err) }
func (e *entryError) Unwrap() error { return e.err }
