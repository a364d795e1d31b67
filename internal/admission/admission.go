// Package admission owns everything that happens to a synthesis request
// before it burns a worker slot: per-tenant weighted fair queuing across
// priority classes and load-aware shedding with measured Retry-After
// hints.
//
// The package sits between the HTTP surface and the solve engine
// (internal/service). The service enqueues (tenant, class, job) triples
// through Queue.Submit; workers pull them back out through Queue.Next in
// deficit-round-robin order, so one tenant's 10k-spec batch cannot
// starve another tenant's single interactive solve. The queue measures
// its own dequeue rate and per-class waiting time, which is what turns
// "try again later" into a concrete Retry-After second count.
//
// Identity travels on the request context: the HTTP layer parses the
// X-Synthd-Tenant and X-Synthd-Priority headers into a Caller and
// attaches it with WithCaller; the engine recovers it with CallerFrom at
// enqueue time. Requests without a caller run as the default tenant at
// interactive priority — single-node library users and existing tests
// keep today's exact semantics.
package admission

import "context"

// Class is a request priority class. Lower values are more latency
// sensitive and receive proportionally more of the dequeue bandwidth
// (see Queue).
type Class int

const (
	// Interactive is the default class: a human (or a latency-sensitive
	// caller) waiting on one solve. Interactive requests are never shed
	// on queue depth — they block at the hard capacity bound instead —
	// and they hold the largest deficit-round-robin weight.
	Interactive Class = iota
	// Batch is the class for bulk work submitted through the batch
	// endpoint: throughput-oriented, shed early under load.
	Batch
	// Background is the lowest class: best-effort work that yields to
	// everything else and is shed first.
	Background

	// NumClasses is the number of priority classes.
	NumClasses = 3
)

// String returns the wire name of the class (the X-Synthd-Priority
// header values).
func (c Class) String() string {
	switch c {
	case Interactive:
		return "interactive"
	case Batch:
		return "batch"
	case Background:
		return "background"
	default:
		return "unknown"
	}
}

// ParseClass parses a wire class name. The empty string is Interactive
// (the default for requests that carry no priority header); unknown
// names report ok == false so the HTTP layer can reject them as invalid
// rather than silently reclassifying.
func ParseClass(s string) (Class, bool) {
	switch s {
	case "", "interactive":
		return Interactive, true
	case "batch":
		return Batch, true
	case "background":
		return Background, true
	default:
		return 0, false
	}
}

// DefaultTenant is the tenant requests without an X-Synthd-Tenant
// header are accounted to.
const DefaultTenant = "default"

// Caller identifies who submitted a request and at what priority, for
// fair-queuing purposes. The zero value normalizes to the default
// tenant at interactive priority.
type Caller struct {
	Tenant string
	Class  Class
}

// normalize fills the zero-value defaults.
func (c Caller) normalize() Caller {
	if c.Tenant == "" {
		c.Tenant = DefaultTenant
	}
	if c.Class < 0 || c.Class >= NumClasses {
		c.Class = Interactive
	}
	return c
}

type callerKey struct{}

// WithCaller attaches the caller identity to ctx; the engine recovers
// it at enqueue time with CallerFrom.
func WithCaller(ctx context.Context, c Caller) context.Context {
	return context.WithValue(ctx, callerKey{}, c.normalize())
}

// CallerFrom returns the caller attached to ctx, or the normalized zero
// caller (default tenant, interactive) when none is attached.
func CallerFrom(ctx context.Context) Caller {
	if c, ok := ctx.Value(callerKey{}).(Caller); ok {
		return c
	}
	return Caller{}.normalize()
}
