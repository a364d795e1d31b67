// The plan-stream client: the one transport a node fetches plan bytes
// from a peer with. Each peer gets a persistent fetch channel, upgraded
// once from a plain HTTP request on the peer's listening port, that
// moves plan frames without the per-request HTTP envelope. The server
// side lives in internal/service (the /plans.stream upgrade endpoint);
// the framing in internal/planio. Every byte fetched over a stream
// passes the receiver's one admission check — the channel changes the
// envelope, never the trust model.
package cluster

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strings"
	"sync"
	"time"

	"switchsynth/internal/planio"
)

// streamConn is one upgraded connection, owned by a single fetch at a
// time.
type streamConn struct {
	c  net.Conn
	br *bufio.Reader
	bw *bufio.Writer
}

func (s *streamConn) close() { _ = s.c.Close() }

// pastDeadline fails a connection's pending and future I/O at once.
var pastDeadline = time.Unix(1, 0)

// neverCancelled disarms the bound of a context that cannot end early.
func neverCancelled() bool { return true }

// arm bounds s's I/O by deadline and, when ctx can end early, sets a
// past deadline the moment it does. disarm reports false once ctx has
// fired: s may then carry an expired deadline and must not be pooled.
func (s *streamConn) arm(ctx context.Context, deadline time.Time) (disarm func() bool) {
	_ = s.c.SetDeadline(deadline)
	if ctx.Done() == nil {
		return neverCancelled
	}
	return context.AfterFunc(ctx, func() { _ = s.c.SetDeadline(pastDeadline) })
}

// planStreams pools at most one idle upgraded connection per peer.
// Concurrent fetches to the same peer dial a second stream rather than
// block behind each other.
type planStreams struct {
	mu   sync.Mutex
	idle map[string]*streamConn
	done bool
}

func newPlanStreams() *planStreams {
	return &planStreams{idle: make(map[string]*streamConn)}
}

// take pops the peer's idle connection, if any.
func (p *planStreams) take(id string) *streamConn {
	p.mu.Lock()
	defer p.mu.Unlock()
	s := p.idle[id]
	delete(p.idle, id)
	return s
}

// put returns a healthy connection to the pool. With the slot already
// occupied (a concurrent fetch finished first), or the pool closed, the
// extra stream closes.
func (p *planStreams) put(id string, s *streamConn) {
	p.mu.Lock()
	if p.done || p.idle[id] != nil {
		p.mu.Unlock()
		s.close()
		return
	}
	p.idle[id] = s
	p.mu.Unlock()
}

// closeAll closes pooled connections and stops pooling new ones; the
// owning Cluster is stopping.
func (p *planStreams) closeAll() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.done = true
	for id, s := range p.idle {
		s.close()
		delete(p.idle, id)
	}
}

// streamFetch performs one fetch exchange with n: on n's pooled stream
// when one is idle, else on a fresh upgrade. A pooled stream that fails
// is closed and the fetch retried once on a fresh dial — the server
// drops idle streams after five minutes, and a restarted peer drops all
// of them. The dial and the exchange end by the earlier of ctx's
// deadline and FetchTimeout from now, and at once when ctx is
// cancelled. status is the peer's answer to the upgrade (0 when no
// complete exchange happened), for the round-trip guard.
func (c *Cluster) streamFetch(ctx context.Context, n Node, key string) (data []byte, found bool, status int, err error) {
	deadline := time.Now().Add(c.cfg.FetchTimeout)
	if d, ok := ctx.Deadline(); ok && d.Before(deadline) {
		deadline = d
	}
	if s := c.streams.take(n.ID); s != nil {
		if data, found, err = c.exchange(ctx, n.ID, s, deadline, key); err == nil {
			return data, found, http.StatusSwitchingProtocols, nil
		}
		if err = fetchErr(ctx, err); errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
			return nil, false, 0, err
		}
	}
	s, status, err := c.dialStream(ctx, n, deadline)
	if err != nil {
		return nil, false, status, fetchErr(ctx, err)
	}
	if data, found, err = c.exchange(ctx, n.ID, s, deadline, key); err != nil {
		return nil, false, 0, fetchErr(ctx, err)
	}
	return data, found, status, nil
}

// fetchErr names why stream I/O failed: ctx's own error when ctx ended
// it, context.DeadlineExceeded when the FetchTimeout deadline did, else
// err itself.
func fetchErr(ctx context.Context, err error) error {
	if cerr := ctx.Err(); cerr != nil {
		return cerr
	}
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		return context.DeadlineExceeded
	}
	return err
}

// dialStream opens a plan stream to n: one TCP dial and the HTTP/1.1
// upgrade handshake. status is the peer's answer to the upgrade, 0 when
// none arrived; any answer but 101 is an error. New has checked that
// n.URL is exactly http://host:port.
func (c *Cluster) dialStream(ctx context.Context, n Node, deadline time.Time) (*streamConn, int, error) {
	c.streamDials.Add(1)
	host := strings.TrimPrefix(n.URL, "http://")
	d := net.Dialer{Deadline: deadline}
	conn, err := d.DialContext(ctx, "tcp", host)
	if err != nil {
		return nil, 0, err
	}
	s := &streamConn{c: conn, br: bufio.NewReader(conn), bw: bufio.NewWriter(conn)}
	disarm := s.arm(ctx, deadline)
	fmt.Fprintf(s.bw, "GET %s HTTP/1.1\r\nHost: %s\r\nUpgrade: %s\r\nConnection: Upgrade\r\n\r\n",
		planio.PlanStreamPath, host, planio.PlanStreamProto)
	err = s.bw.Flush()
	var resp *http.Response
	if err == nil {
		resp, err = http.ReadResponse(s.br, &http.Request{Method: http.MethodGet})
	}
	disarm()
	if err != nil {
		s.close()
		return nil, 0, err
	}
	if resp.StatusCode != http.StatusSwitchingProtocols {
		s.close()
		return nil, resp.StatusCode, fmt.Errorf("%s: status %d", planio.PlanStreamPath, resp.StatusCode)
	}
	return s, resp.StatusCode, nil
}

// exchange runs one fetch on s, bounded by deadline and by ctx. A stream
// that completes the exchange before ctx ends returns to the peer's pool
// slot; any other stream closes.
func (c *Cluster) exchange(ctx context.Context, id string, s *streamConn, deadline time.Time, key string) ([]byte, bool, error) {
	disarm := s.arm(ctx, deadline)
	err := planio.WriteFetchRequest(s.bw, key)
	if err == nil {
		err = s.bw.Flush()
	}
	var data []byte
	var found bool
	if err == nil {
		data, found, err = planio.ReadFetchResponse(s.br, maxPlanBytes)
	}
	if disarm() && err == nil {
		_ = s.c.SetDeadline(time.Time{})
		c.streams.put(id, s)
	} else {
		s.close()
	}
	if err != nil {
		return nil, false, err
	}
	c.streamFetches.Add(1)
	return data, found, nil
}
