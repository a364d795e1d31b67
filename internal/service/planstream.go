// The plan-stream endpoint: a hijacked HTTP/1.1 Upgrade connection that
// serves plan fetches as length-prefixed exchanges, skipping the HTTP
// envelope that dominates a small frame's transfer cost. See
// internal/planio/stream.go for the wire format and the rationale.
package service

import (
	"fmt"
	"net"
	"net/http"
	"strings"
	"time"

	"switchsynth/internal/planio"
)

// trackStreamConn registers a hijacked stream connection for close-time
// hangup; false means the engine is already closed and the connection
// must not be served.
func (e *Engine) trackStreamConn(c net.Conn) bool {
	e.streamMu.Lock()
	defer e.streamMu.Unlock()
	if e.streamClosed {
		return false
	}
	if e.streamConns == nil {
		e.streamConns = make(map[net.Conn]struct{})
	}
	e.streamConns[c] = struct{}{}
	return true
}

func (e *Engine) untrackStreamConn(c net.Conn) {
	e.streamMu.Lock()
	delete(e.streamConns, c)
	e.streamMu.Unlock()
}

// planStreamIdleTimeout bounds how long a stream waits for the next
// fetch request before the server reclaims the connection (and its
// goroutine). Clients reconnect transparently on the next fetch.
const planStreamIdleTimeout = 5 * time.Minute

// upgradesToPlanStream reports whether the request is a well-formed
// upgrade handshake for the plan-stream protocol.
func upgradesToPlanStream(r *http.Request) bool {
	if !strings.EqualFold(r.Header.Get("Upgrade"), planio.PlanStreamProto) {
		return false
	}
	for _, tok := range strings.Split(r.Header.Get("Connection"), ",") {
		if strings.EqualFold(strings.TrimSpace(tok), "Upgrade") {
			return true
		}
	}
	return false
}

// handlePlanStream upgrades the connection and serves fetch exchanges
// until the peer hangs up, the idle timeout fires, or a malformed
// request arrives. It serves stored plan bytes verbatim (PlanBytes), so
// no transcoding happens here: a peer that speaks the stream protocol
// by definition decodes every planio format.
func handlePlanStream(e *Engine, w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		writeError(w, http.StatusMethodNotAllowed, "invalid", fmt.Errorf("GET required"))
		return
	}
	if !upgradesToPlanStream(r) {
		writeError(w, http.StatusUpgradeRequired, "invalid",
			fmt.Errorf("requires Upgrade: %s", planio.PlanStreamProto))
		return
	}
	hj, ok := w.(http.Hijacker)
	if !ok {
		writeError(w, http.StatusInternalServerError, "internal",
			fmt.Errorf("connection cannot be hijacked"))
		return
	}
	conn, rw, err := hj.Hijack()
	if err != nil {
		writeError(w, http.StatusInternalServerError, "internal", err)
		return
	}
	if !e.trackStreamConn(conn) {
		conn.Close()
		return
	}
	defer func() {
		e.untrackStreamConn(conn)
		conn.Close()
	}()
	if _, err := fmt.Fprintf(rw, "HTTP/1.1 101 Switching Protocols\r\nUpgrade: %s\r\nConnection: Upgrade\r\n\r\n",
		planio.PlanStreamProto); err != nil {
		return
	}
	if err := rw.Flush(); err != nil {
		return
	}
	for {
		if err := conn.SetReadDeadline(time.Now().Add(planStreamIdleTimeout)); err != nil {
			return
		}
		key, err := planio.ReadFetchRequest(rw.Reader)
		if err != nil {
			return // clean EOF, idle timeout, or a malformed request: drop the stream
		}
		data, ok := e.PlanBytes(key)
		if err := planio.WriteFetchResponse(rw.Writer, data, ok); err != nil {
			return
		}
		if err := rw.Flush(); err != nil {
			return
		}
	}
}
