// HTTP surface of the synthesis service: the handlers behind cmd/synthd.
//
//	POST /synthesize              JSON SynthesizeRequest in, SynthesizeResponse
//	                              out; with ?wait=proof the response is an
//	                              ndjson stream of improving anytime plans
//	                              ending in the proven one (or an error line)
//	POST /synthesize/batch        JSON BatchRequest in, BatchResponse out: the
//	                              specs are canonicalized and deduped against
//	                              each other and the cache tiers, one solve per
//	                              distinct canonical key, per-item outcomes
//	GET  /synthesize/stream/{key} attach to key's in-flight solve and stream
//	                              its incumbents (ndjson, nameless); 404 when
//	                              the key has neither a cached plan nor a
//	                              running solve
//	GET  /healthz                 liveness + pool shape (alive even while
//	                              draining)
//	GET  /readyz                  readiness: 503 once drain has begun or the
//	                              engine closed, so probes and load balancers
//	                              stop routing here while /healthz still
//	                              reports the process up
//	GET  /metrics                 Snapshot as JSON, plus a "cluster" section
//	                              (ring, peer health, cluster counters) when a
//	                              cluster is configured
//	GET  /plans                   manifest of locally held canonical plan keys
//	GET  /plans/{key}             the stored plan frame transcoded to the JSON
//	                              file format, 404 when absent
//	GET  /plans.stream            upgrade to the plan stream: the persistent
//	                              channel peers fetch plan frames over for
//	                              cache fill and anti-entropy
//	PUT  /plans/{key}             receive a replication push from a peer; the
//	                              body is re-verified end to end
//	                              (Engine.ImportPlan) before it is stored — 204
//	                              on success, 422 when verification rejects it
//
// On a clustered node (HandlerConfig.Cluster) routing is a hook of this
// handler: a /synthesize body is read, decoded and canonicalized once per
// hop, and only then does the cluster decide, from the job key, whether
// to forward the buffered bytes to the key's owner or let this node
// serve it on the engine's keyed path. GET /synthesize/stream/{key} asks
// the same question with its path key. A body or spec this handler
// refuses is refused where it lands, never forwarded; the admission
// headers are judged by the node that serves the request. Every
// response of a clustered node carries X-Synthd-Node, the ID of the
// node that served it.
//
// Admission identity rides on two request headers: X-Synthd-Tenant names
// the tenant sharing the fair queue (absent means the default tenant)
// and X-Synthd-Priority picks the class — "interactive" (default for
// /synthesize), "batch" (default for /synthesize/batch) or "background".
// An unknown class is a 400.
//
// Error responses are JSON {"error": ..., "kind": ...} where kind is one
// of "invalid" (400, or 413 for an oversized body), "not-found" (404),
// "no-solution" (422), "timeout" (504, a solve that spent its time
// limit), "overloaded" (429, admission queue over its watermarks),
// "unavailable" (503, engine closed or draining) or
// "panic"/"internal" (500). The failure taxonomy (failure.go) maps each
// engine error to its kind and status. Its refusals, 429 and 503, carry a
// Retry-After header (whole seconds, clamped to [1, 30]): the error's own
// hint, else the queue's measured estimate.
package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"switchsynth"
	"switchsynth/internal/admission"
	"switchsynth/internal/faultinject"
	"switchsynth/internal/planio"
	"switchsynth/internal/spec"
)

// MaxRequestBody bounds /synthesize payloads; the largest supported
// switch spec is a few KB, so 1 MiB is generous.
const MaxRequestBody = 1 << 20

// maxBatchRequestBody bounds /synthesize/batch payloads: room for
// maxBatchSpecs specs of generous size.
const maxBatchRequestBody = 16 << 20

// maxBatchSpecs bounds how many specs one batch may carry.
const maxBatchSpecs = 1024

// maxPlanBody bounds a PUT /plans/{key} replication push; it matches the
// cluster layer's bound on fetched plans.
const maxPlanBody = 8 << 20

// TenantHeader and PriorityHeader carry the admission identity; the
// cluster forwards both when proxying to a key's owner. NodeHeader names
// the node whose engine served a clustered response.
const (
	TenantHeader   = "X-Synthd-Tenant"
	PriorityHeader = "X-Synthd-Priority"
	NodeHeader     = "X-Synthd-Node"
)

// SynthesizeRequest is the POST /synthesize payload.
type SynthesizeRequest struct {
	// Spec is the synthesis input (the library's JSON spec format).
	Spec *spec.Spec `json:"spec"`
	// Options tune the solve and the response.
	Options RequestOptions `json:"options"`
}

// RequestOptions is the wire form of switchsynth.Options plus response
// shaping.
type RequestOptions struct {
	// TimeLimitMS bounds the solve in milliseconds; 0 inherits the
	// daemon's default limit.
	TimeLimitMS int64 `json:"timeLimitMs,omitempty"`
	// PressureSharing groups essential valves onto shared control inlets.
	PressureSharing bool `json:"pressureSharing,omitempty"`
	// RouteControl additionally routes the control layer.
	RouteControl bool `json:"routeControl,omitempty"`
	// SolverWorkers is the number of branch-and-bound goroutines inside
	// this request's solve; 0 inherits the daemon's -solver-workers
	// default. The plan is bit-identical for every value.
	SolverWorkers int `json:"solverWorkers,omitempty"`
	// SVG embeds a rendering of the synthesized switch in the response.
	SVG bool `json:"svg,omitempty"`
}

func (ro RequestOptions) toOptions() switchsynth.Options {
	return switchsynth.Options{
		TimeLimit:       time.Duration(ro.TimeLimitMS) * time.Millisecond,
		PressureSharing: ro.PressureSharing,
		RouteControl:    ro.RouteControl,
		SolverWorkers:   ro.SolverWorkers,
	}
}

// SynthesizeResponse is the POST /synthesize success payload, and the
// frame format of the streaming endpoints.
type SynthesizeResponse struct {
	Name    string `json:"name"`
	Summary string `json:"summary"`

	// Cache provenance. DiskHit marks a plan served from the durable
	// store (warm boot / memory-tier miss); PeerHit one fetched from the
	// key's owning cluster peer and re-verified locally.
	CacheHit  bool   `json:"cacheHit"`
	DiskHit   bool   `json:"diskHit,omitempty"`
	PeerHit   bool   `json:"peerHit,omitempty"`
	Coalesced bool   `json:"coalesced"`
	Key       string `json:"key"`

	// Streaming frame metadata (ndjson endpoints only). Seq numbers the
	// frames of one stream from 1; Final marks the last frame — the
	// proven plan, identical to what a plain POST /synthesize returns.
	// Earlier frames are anytime incumbents: Degraded with a Gap.
	Seq   int64 `json:"seq,omitempty"`
	Final bool  `json:"final,omitempty"`

	// Paper feature values.
	NumSets       int     `json:"numSets"`
	NumValves     int     `json:"numValves"`
	ControlInlets int     `json:"controlInlets"`
	LengthMM      float64 `json:"lengthMm"`
	Objective     float64 `json:"objective"`
	Proven        bool    `json:"proven"`
	// Degraded marks an anytime plan returned without an optimality
	// proof; LowerBound and Gap quantify how far it may be from optimal.
	Degraded     bool    `json:"degraded,omitempty"`
	LowerBound   float64 `json:"lowerBound,omitempty"`
	Gap          float64 `json:"gap,omitempty"`
	SolveSeconds float64 `json:"solveSeconds"`

	// Plan is the full routed plan in the planio format; feed it to
	// cmd/verifyplan or planio.Decode for independent re-verification.
	Plan json.RawMessage `json:"plan"`
	// SVG is the rendered switch (present when options.svg).
	SVG string `json:"svg,omitempty"`
}

// BatchRequest is the POST /synthesize/batch payload.
type BatchRequest struct {
	// Specs are the batch members, at most maxBatchSpecs of them.
	Specs []BatchRequestItem `json:"specs"`
	// Options are the defaults applied to members without their own.
	Options RequestOptions `json:"options"`
}

// BatchRequestItem is one member of a BatchRequest.
type BatchRequestItem struct {
	Spec *spec.Spec `json:"spec"`
	// Options, when present, replace the batch-level defaults for this
	// member only.
	Options *RequestOptions `json:"options,omitempty"`
}

// BatchResponse is the POST /synthesize/batch payload: always 200 at the
// envelope level once the batch parses, with per-item success or failure
// inside.
type BatchResponse struct {
	// Specs is the number of members received, DistinctKeys how many
	// canonical equivalence classes they collapsed to, Solves how many
	// actually burned a solver slot (the rest were cache or in-flight
	// hits), and Failed how many members errored.
	Specs        int `json:"specs"`
	DistinctKeys int `json:"distinctKeys"`
	Solves       int `json:"solves"`
	Failed       int `json:"failed"`
	// Items has one entry per input spec, in input order.
	Items []BatchItemResponse `json:"items"`
}

// BatchItemResponse is one member's outcome inside a BatchResponse.
type BatchItemResponse struct {
	Index int    `json:"index"`
	Key   string `json:"key,omitempty"`
	// Dedup marks a member answered from another member's solve in this
	// batch (its plan was adapted, not re-admitted).
	Dedup bool `json:"dedup,omitempty"`
	// Response is the member's synthesis; nil when the member failed.
	Response *SynthesizeResponse `json:"response,omitempty"`
	// Error/Kind/Status describe a failed member using the same taxonomy
	// as the top-level error envelope (kind "invalid", "overloaded", ...).
	Error  string `json:"error,omitempty"`
	Kind   string `json:"kind,omitempty"`
	Status int    `json:"status,omitempty"`
}

type errorResponse struct {
	Error string `json:"error"`
	Kind  string `json:"kind"`
}

// HandlerConfig carries the optional, daemon-level hooks into the HTTP
// surface. The zero value is a plain single-node handler.
type HandlerConfig struct {
	// Cluster, when non-nil, makes the handler a cluster node
	// (cmd/synthd wires internal/cluster's *Cluster here): it routes
	// /synthesize and /synthesize/stream/{key}, names the node in
	// X-Synthd-Node and adds the "cluster" section to /metrics.
	Cluster Router
}

// Router is the handler's view of a cluster.
type Router interface {
	// SelfID names this node.
	SelfID() string
	// Route is asked once per request the handler has read, decoded and
	// keyed (body is the buffered request bytes, nil for a stream
	// watch) whether key belongs to another node. It reports true once
	// it has written that node's answer, or once the caller has gone
	// while it waited for one; false when this node serves the request.
	Route(w http.ResponseWriter, r *http.Request, key string, body []byte) bool
	// Report is the /metrics "cluster" section.
	Report() any
}

// NewHandler serves the engine over HTTP with no daemon-level hooks.
func NewHandler(e *Engine) http.Handler {
	return NewHandlerWith(e, HandlerConfig{})
}

// NewHandlerWith serves the engine over HTTP with hc's hooks attached.
func NewHandlerWith(e *Engine, hc HandlerConfig) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/synthesize", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			w.Header().Set("Allow", http.MethodPost)
			writeError(w, http.StatusMethodNotAllowed, KindInvalid, fmt.Errorf("POST required"))
			return
		}
		handleSynthesize(e, hc.Cluster, w, r)
	})
	mux.HandleFunc("/synthesize/batch", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			w.Header().Set("Allow", http.MethodPost)
			writeError(w, http.StatusMethodNotAllowed, KindInvalid, fmt.Errorf("POST required"))
			return
		}
		handleBatch(e, w, r)
	})
	mux.HandleFunc("/synthesize/stream/", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			w.Header().Set("Allow", http.MethodGet)
			writeError(w, http.StatusMethodNotAllowed, KindInvalid, fmt.Errorf("GET required"))
			return
		}
		handleStreamKey(e, hc.Cluster, w, r)
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		snap := e.Snapshot()
		writeJSON(w, http.StatusOK, map[string]any{
			"status":     "ok",
			"workers":    snap.Workers,
			"queueDepth": snap.Admission.Depth,
		})
	})
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) {
		// Liveness and readiness split: /healthz stays 200 for the whole
		// process lifetime (the drain itself is healthy behavior), while
		// /readyz flips to 503 the moment drain begins so cluster
		// membership probes and load balancers stop routing here. The
		// Retry-After is the queue's measured estimate of when the
		// backlog — the thing the drain is waiting on — will be gone.
		if e.Draining() {
			writeFailure(w, e, &admission.ErrDraining{RetryAfter: e.RetryAfterHint()})
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{"status": "ready"})
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		snap := e.Snapshot()
		if hc.Cluster != nil {
			writeJSON(w, http.StatusOK, struct {
				Snapshot
				Cluster any `json:"cluster"`
			}{snap, hc.Cluster.Report()})
			return
		}
		writeJSON(w, http.StatusOK, snap)
	})
	plans := func(w http.ResponseWriter, r *http.Request) {
		key := strings.TrimPrefix(r.URL.Path, "/plans")
		key = strings.TrimPrefix(key, "/")
		if r.Method == http.MethodPut && key != "" {
			handlePlanPush(e, w, r, key)
			return
		}
		if r.Method != http.MethodGet {
			w.Header().Set("Allow", "GET, PUT")
			writeError(w, http.StatusMethodNotAllowed, KindInvalid, fmt.Errorf("GET or PUT required"))
			return
		}
		if key == "" {
			writeJSON(w, http.StatusOK, map[string]any{"keys": e.PlanKeys()})
			return
		}
		data, ok := e.PlanBytes(key)
		if !ok {
			writeError(w, http.StatusNotFound, KindNotFound, fmt.Errorf("no plan for key %q", key))
			return
		}
		// Peers fetch frames over the plan stream; this endpoint serves
		// curl, humans and verifyplan over HTTP the JSON file format,
		// transcoded through full frame validation. A record that is not
		// a frame (an old JSON store's) is not served.
		res, err := planio.DecodeBinary(data)
		if err == nil {
			data, err = planio.EncodeWire(res)
		}
		if err != nil {
			writeError(w, http.StatusInternalServerError, KindInternal,
				fmt.Errorf("transcoding plan %q: %w", key, err))
			return
		}
		w.Header().Set("Content-Type", planio.ContentTypeJSON)
		_, _ = w.Write(data)
	}
	mux.HandleFunc("/plans", plans)
	mux.HandleFunc("/plans/", plans)
	// The peer fetch channel: the stored frames, without the
	// per-request HTTP envelope (planstream.go).
	mux.HandleFunc(planio.PlanStreamPath, func(w http.ResponseWriter, r *http.Request) {
		handlePlanStream(e, w, r)
	})
	if hc.Cluster == nil {
		return mux
	}
	self := hc.Cluster.SelfID()
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set(NodeHeader, self)
		mux.ServeHTTP(w, r)
	})
}

// handlePlanPush receives a replication push (PUT /plans/{key} from a
// peer's cluster layer). The body is handed to
// Engine.ImportPlan, whose admitPlan re-verifies everything — decode, Proven,
// canonical-key re-derivation against the URL key, full contamination
// check — before any local tier is touched. Success is 204; bytes that
// fail verification are a 422 and are never stored or served. Pushing
// an already-held key is a cheap 204 no-op.
func handlePlanPush(e *Engine, w http.ResponseWriter, r *http.Request, key string) {
	data, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxPlanBody))
	if err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			writeError(w, http.StatusRequestEntityTooLarge, KindInvalid,
				fmt.Errorf("plan exceeds %d bytes", tooLarge.Limit))
			return
		}
		writeError(w, http.StatusBadRequest, KindInvalid, fmt.Errorf("reading plan: %w", err))
		return
	}
	if err := e.ImportPlan(key, data); err != nil {
		writeError(w, http.StatusUnprocessableEntity, KindInvalid, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// callerFromRequest reads the admission identity headers. def is the
// endpoint's default priority class when the header is absent.
func callerFromRequest(r *http.Request, def admission.Class) (admission.Caller, error) {
	c := admission.Caller{Tenant: r.Header.Get(TenantHeader), Class: def}
	if h := r.Header.Get(PriorityHeader); h != "" {
		cl, ok := admission.ParseClass(h)
		if !ok {
			return c, fmt.Errorf("unknown priority class %q (want interactive, batch or background)", h)
		}
		c.Class = cl
	}
	return c, nil
}

// decodeBody reads r's body, at most limit bytes, and decodes it as JSON
// into v, refusing unknown fields; it returns the bytes read, which a
// clustered node may forward. On failure it writes the JSON error
// envelope and returns false: an oversized body is not malformed JSON
// but a limit violation, so it is a 413 telling the client that
// shrinking (not fixing) the payload is the remedy; anything else is a
// 400. Never a decoder panic or a bare text body.
func decodeBody(w http.ResponseWriter, r *http.Request, limit int64, v any) ([]byte, bool) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, limit))
	if err == nil {
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		if err = dec.Decode(v); err == nil {
			return body, true
		}
	}
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		writeError(w, http.StatusRequestEntityTooLarge, KindInvalid,
			fmt.Errorf("request body exceeds %d bytes", tooLarge.Limit))
		return nil, false
	}
	writeError(w, http.StatusBadRequest, KindInvalid, fmt.Errorf("parsing request: %w", err))
	return nil, false
}

// handleSynthesize reads, decodes and canonicalizes one request, then
// asks cl (nil on a single node) whether the key belongs elsewhere;
// otherwise it serves the request on the engine's keyed path with the
// canonical form and key it derived. The admission identity is judged
// by the node that admits the request, so a forward carries it
// unjudged.
func handleSynthesize(e *Engine, cl Router, w http.ResponseWriter, r *http.Request) {
	e.inj.Fire(faultinject.HTTPDelay)
	var req SynthesizeRequest
	body, ok := decodeBody(w, r, MaxRequestBody, &req)
	if !ok {
		return
	}
	canon, key, err := e.canonical(req.Spec)
	if err != nil {
		writeFailure(w, e, err)
		return
	}
	if cl != nil && cl.Route(w, r, key, body) {
		return
	}
	caller, err := callerFromRequest(r, admission.Interactive)
	if err != nil {
		writeError(w, http.StatusBadRequest, KindInvalid, err)
		return
	}
	ctx := admission.WithCaller(r.Context(), caller)
	opts := req.Options.toOptions()
	if r.URL.Query().Get("wait") == "proof" {
		e.metrics.streamWatches.Add(1)
		streamSynthesize(e, w, req.Options.SVG, func(emit func(*Response, bool) error) (*Response, error) {
			return e.doKeyed(ctx, key, canon, req.Spec, opts, emit)
		})
		return
	}
	var out *SynthesizeResponse
	resp, err := e.doKeyed(ctx, key, canon, req.Spec, opts, nil)
	if err == nil {
		out, err = buildResponse(resp, req.Options.SVG)
	}
	if err != nil {
		writeFailure(w, e, err)
		return
	}
	writeJSON(w, http.StatusOK, *out)
}

// handleBatch decodes a BatchRequest, hands the members to Engine.DoBatch
// (one solve per distinct canonical key) and reports per-item outcomes.
// The default priority class is "batch" — a batch must say so explicitly
// to compete with interactive traffic.
func handleBatch(e *Engine, w http.ResponseWriter, r *http.Request) {
	e.inj.Fire(faultinject.HTTPDelay)
	caller, err := callerFromRequest(r, admission.Batch)
	if err != nil {
		writeError(w, http.StatusBadRequest, KindInvalid, err)
		return
	}
	var req BatchRequest
	if _, ok := decodeBody(w, r, maxBatchRequestBody, &req); !ok {
		return
	}
	if len(req.Specs) == 0 {
		writeError(w, http.StatusBadRequest, KindInvalid, fmt.Errorf("batch has no specs"))
		return
	}
	if len(req.Specs) > maxBatchSpecs {
		writeError(w, http.StatusRequestEntityTooLarge, KindInvalid,
			fmt.Errorf("batch has %d specs, limit is %d", len(req.Specs), maxBatchSpecs))
		return
	}
	items := make([]BatchSpec, len(req.Specs))
	svg := make([]bool, len(req.Specs))
	for i, it := range req.Specs {
		ro := req.Options
		if it.Options != nil {
			ro = *it.Options
		}
		items[i] = BatchSpec{Spec: it.Spec, Opts: ro.toOptions()}
		svg[i] = ro.SVG
	}
	outcomes := e.DoBatch(admission.WithCaller(r.Context(), caller), items)
	resp := BatchResponse{
		Specs: len(items),
		Items: make([]BatchItemResponse, len(outcomes)),
	}
	keys := map[string]struct{}{}
	for i, oc := range outcomes {
		item := BatchItemResponse{Index: oc.Index, Key: oc.Key, Dedup: oc.Dedup}
		if oc.Key != "" {
			keys[oc.Key] = struct{}{}
		}
		err := oc.Err
		if err == nil {
			item.Response, err = buildResponse(oc.Resp, svg[i])
		}
		if err != nil {
			f := classify(err)
			item.Error, item.Kind, item.Status = err.Error(), f.kind, f.status
			resp.Failed++
		} else if !oc.Dedup && !oc.Resp.CacheHit && !oc.Resp.Coalesced {
			resp.Solves++
		}
		resp.Items[i] = item
	}
	resp.DistinctKeys = len(keys)
	writeJSON(w, http.StatusOK, resp)
}

// handleStreamKey attaches to the in-flight solve of the key in the URL
// path and streams its incumbents as ndjson; a key already cached is a
// single final frame, an unknown key a 404, and a watched solve that
// fails carries its own error (a shed or drained leader: 429 or 503 with
// Retry-After). Frames are presented on the solve's canonical spec (the
// watcher supplied no spec of its own), so they carry no name. On a
// clustered node the key's owner serves the watch (cl.Route).
func handleStreamKey(e *Engine, cl Router, w http.ResponseWriter, r *http.Request) {
	key := strings.TrimPrefix(r.URL.Path, "/synthesize/stream/")
	if key == "" {
		writeError(w, http.StatusBadRequest, KindInvalid, fmt.Errorf("no key in path"))
		return
	}
	if cl != nil && cl.Route(w, r, key, nil) {
		return
	}
	streamSynthesize(e, w, false, func(emit func(*Response, bool) error) (*Response, error) {
		return e.WatchKey(r.Context(), key, emit)
	})
}

// streamSynthesize runs a streaming solve (DoStream or WatchKey via the
// run callback) and renders it as ndjson: one SynthesizeResponse per
// improving incumbent, then the proven plan with final=true — or, if the
// solve fails, an {"error","kind"} line. Errors before the first frame
// still get a clean status code and Retry-After; after the first frame
// the 200 is committed and the error rides in-band as the last line.
func streamSynthesize(e *Engine, w http.ResponseWriter, svg bool,
	run func(emit func(*Response, bool) error) (*Response, error)) {
	var seq int64
	wrote := false
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	emit := func(resp *Response, final bool) error {
		out, err := buildResponse(resp, svg && final)
		if err != nil {
			if final {
				return err
			}
			return nil // skip a frame that fails to encode; the final plan still arrives
		}
		seq++
		out.Seq, out.Final = seq, final
		if !wrote {
			w.Header().Set("Content-Type", "application/x-ndjson")
			w.WriteHeader(http.StatusOK)
			wrote = true
		}
		if err := enc.Encode(out); err != nil {
			return err
		}
		if flusher != nil {
			flusher.Flush()
		}
		return nil
	}
	resp, err := run(emit)
	if err == nil {
		err = emit(resp, true)
		if err == nil {
			return
		}
	}
	if !wrote {
		writeFailure(w, e, err)
		return
	}
	_ = enc.Encode(errorResponse{Error: err.Error(), Kind: classify(err).kind})
	if flusher != nil {
		flusher.Flush()
	}
}

// buildResponse renders one engine Response as the wire payload. The
// plan was presented on the requester's spec (assemble), so the name is
// that spec's own.
func buildResponse(resp *Response, svg bool) (*SynthesizeResponse, error) {
	syn := resp.Synthesis
	plan, err := planio.EncodeWire(syn.Result)
	if err != nil {
		return nil, err
	}
	out := &SynthesizeResponse{
		Name:          syn.Spec.Name,
		Summary:       syn.Summary(),
		CacheHit:      resp.CacheHit,
		DiskHit:       resp.DiskHit,
		PeerHit:       resp.PeerHit,
		Coalesced:     resp.Coalesced,
		Key:           resp.Key,
		NumSets:       syn.NumSets,
		NumValves:     syn.NumValves(),
		ControlInlets: syn.ControlInlets(),
		LengthMM:      syn.Length,
		Objective:     syn.Objective,
		Proven:        syn.Proven,
		Degraded:      syn.Degraded,
		LowerBound:    syn.LowerBound,
		Gap:           syn.Gap,
		SolveSeconds:  resp.SolveTime.Seconds(),
		Plan:          plan,
	}
	if svg {
		out.SVG = syn.SVG()
	}
	return out, nil
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, kind string, err error) {
	writeJSON(w, status, errorResponse{Error: err.Error(), Kind: kind})
}
