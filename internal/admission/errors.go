// Typed admission errors. Each carries a RetryAfter hint derived from
// the queue's measured dequeue rate, so the HTTP layer never has to
// fall back to a made-up constant.
package admission

import (
	"errors"
	"fmt"
	"time"
)

// ErrClosed is returned by Queue.Submit after Close. The service layer
// translates it into its own typed engine-closed error.
var ErrClosed = errors.New("admission: queue is closed")

// ErrShed reports that a request was rejected by a load watermark
// before entering the queue: the class's depth watermark tripped, or
// the estimated queue wait exceeded the configured bound. RetryAfter is
// the measured backlog-drain estimate.
type ErrShed struct {
	Tenant     string
	Class      Class
	RetryAfter time.Duration
}

// Error implements error.
func (e *ErrShed) Error() string {
	return fmt.Sprintf("admission: %s queue over watermark for tenant %q, retry in %s",
		e.Class, e.Tenant, e.RetryAfter.Round(time.Millisecond))
}

// Is makes every *ErrShed match every other under errors.Is.
func (e *ErrShed) Is(target error) bool {
	var other *ErrShed
	return errors.As(target, &other)
}

// ErrDraining reports that the engine is gracefully draining: in-flight
// and queued work keeps completing, but new solves are rejected so the
// load balancer's next attempt lands on a healthy node. RetryAfter is
// the measured backlog-drain estimate.
type ErrDraining struct {
	RetryAfter time.Duration
}

// Error implements error.
func (e *ErrDraining) Error() string {
	return fmt.Sprintf("admission: engine is draining, retry in %s", e.RetryAfter.Round(time.Millisecond))
}

// Is makes every *ErrDraining match every other under errors.Is.
func (e *ErrDraining) Is(target error) bool {
	var other *ErrDraining
	return errors.As(target, &other)
}
