// The failure taxonomy: what every error the service returns is, decided
// in one table.
//
// Each row of failures names one error type and holds everything the
// service does with it: its wire kind and HTTP status, its /metrics
// bucket, and whether it is a refusal or a verdict. A refusal spent
// nothing on the request — a shed, a drain, a closed engine — so the
// same request may succeed later or on another node: it carries a
// Retry-After, the client retries it and the cluster falls back past it
// (Transient). A verdict is the request's answer: an invalid spec, an
// infeasibility proof, a solve that spent its whole time limit. Retrying
// a verdict repeats it, and for a timeout repeats its cost.
//
// The engine counts each finished request in its row's bucket; the HTTP
// handlers, batch items and in-band stream errors take kind, status and
// Retry-After from it; the client maps an in-band kind back to its
// status with KindStatus. Nothing else switches on error types.
package service

import (
	"context"
	"errors"
	"math"
	"net/http"
	"strconv"
	"time"

	"switchsynth/internal/admission"
	"switchsynth/internal/search"
	"switchsynth/internal/spec"
)

// The wire kinds of the JSON error envelope {"error", "kind"}.
const (
	KindInvalid     = "invalid"
	KindNotFound    = "not-found"
	KindNoSolution  = "no-solution"
	KindTimeout     = "timeout"
	KindOverloaded  = "overloaded"
	KindUnavailable = "unavailable"
	KindPanic       = "panic"
	KindInternal    = "internal"
)

// failure is one row of the taxonomy.
type failure struct {
	is      func(error) bool // whether an error belongs to the row
	kind    string
	status  int
	bucket  bucket
	refusal bool
	// hint, on a refusal whose error carries its own backoff, reads it;
	// nil or a zero hint falls back to the queue's measured estimate.
	hint func(error) time.Duration
}

// failures is the table: an error takes the first row it belongs to.
// Order matters only for the solve timeout, which wraps its context
// cause and so must precede the caller's-context row; the last row
// takes anything else.
var failures = [...]failure{
	{is: isA[*spec.ErrNoSolution], kind: KindNoSolution, status: http.StatusUnprocessableEntity, bucket: bucketInfeasible},
	{is: isA[*spec.ValidationError], kind: KindInvalid, status: http.StatusBadRequest, bucket: bucketInvalid},
	{is: isA[*search.ErrTimeout], kind: KindTimeout, status: http.StatusGatewayTimeout, bucket: bucketTimedOut},
	{is: isA[*ErrSolvePanic], kind: KindPanic, status: http.StatusInternalServerError, bucket: bucketPanicked},
	{is: isA[*admission.ErrShed], kind: KindOverloaded, status: http.StatusTooManyRequests, bucket: bucketShedQueue, refusal: true,
		hint: func(err error) time.Duration { return as[*admission.ErrShed](err).RetryAfter }},
	{is: isA[*admission.ErrDraining], kind: KindUnavailable, status: http.StatusServiceUnavailable, bucket: bucketDrainRejected, refusal: true,
		hint: func(err error) time.Duration { return as[*admission.ErrDraining](err).RetryAfter }},
	{is: isErr(ErrEngineClosed), kind: KindUnavailable, status: http.StatusServiceUnavailable, bucket: bucketDrainRejected, refusal: true},
	{is: isErr(ErrUnknownKey), kind: KindNotFound, status: http.StatusNotFound, bucket: bucketFailed},
	// The caller's own context ended before an answer.
	{is: func(err error) bool {
		return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
	}, kind: KindTimeout, status: http.StatusGatewayTimeout, bucket: bucketFailed},
	{is: func(error) bool { return true }, kind: KindInternal, status: http.StatusInternalServerError, bucket: bucketFailed},
}

// classify returns err's row.
func classify(err error) *failure {
	i := 0
	for !failures[i].is(err) {
		i++
	}
	return &failures[i]
}

func isA[T error](err error) bool {
	var t T
	return errors.As(err, &t)
}

func as[T error](err error) T {
	var t T
	errors.As(err, &t)
	return t
}

func isErr(target error) func(error) bool {
	return func(err error) bool { return errors.Is(err, target) }
}

// Transient reports whether an HTTP status means the request was
// refused rather than answered, so it can succeed later or on another
// node: the status of a refusal row (429, 503), or 502 from a gateway in
// front of a daemon that never reached one. The client retries these and
// the cluster falls back past them; every other status is a verdict.
func Transient(status int) bool {
	if status == http.StatusBadGateway {
		return true
	}
	for i := range failures {
		if failures[i].refusal && failures[i].status == status {
			return true
		}
	}
	return false
}

// KindStatus is the status a daemon answers for a failure of kind before
// a stream commits its 200: the status of kind's first row, and 500 for
// a kind the table does not name. It maps an in-band stream error back
// onto the status the same error carries as a response.
func KindStatus(kind string) int {
	for i := range failures {
		if failures[i].kind == kind {
			return failures[i].status
		}
	}
	return http.StatusInternalServerError
}

// writeFailure answers err as its row says: the row's status and kind
// in the JSON envelope and, for a refusal, a Retry-After in whole
// seconds, the error's own hint or else the queue's measured estimate.
func writeFailure(w http.ResponseWriter, e *Engine, err error) {
	f := classify(err)
	if f.refusal {
		var d time.Duration
		if f.hint != nil {
			d = f.hint(err)
		}
		if d <= 0 {
			d = e.RetryAfterHint()
		}
		w.Header().Set("Retry-After", strconv.Itoa(retrySeconds(d)))
	}
	writeError(w, f.status, f.kind, err)
}

// retrySeconds renders a Retry-After duration as whole seconds in [1, 30].
func retrySeconds(d time.Duration) int {
	secs := int(math.Ceil(d.Seconds()))
	if secs < 1 {
		secs = 1
	}
	if secs > 30 {
		secs = 30
	}
	return secs
}
