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
//	                              its incumbents (ndjson); 404 when the key has
//	                              neither a cached plan nor a running solve
//	GET  /healthz                 liveness + pool shape (alive even while
//	                              draining)
//	GET  /readyz                  readiness: 503 once drain has begun or the
//	                              engine closed, so probes and load balancers
//	                              stop routing here while /healthz still
//	                              reports the process up
//	GET  /metrics                 Snapshot as JSON (plus a "cluster" section
//	                              when a cluster status hook is configured)
//	GET  /plans                   manifest of locally held canonical plan keys
//	GET  /plans/{key}             the stored planio-encoded plan, 404 when
//	                              absent — the peer cache-fill and anti-entropy
//	                              endpoints
//	PUT  /plans/{key}             receive a replication / read-repair push from
//	                              a peer; the body is re-verified end to end
//	                              (Engine.ImportPlan) before it is stored — 204
//	                              on success, 422 when verification rejects it
//
// Admission identity rides on two request headers: X-Synthd-Tenant names
// the tenant sharing the fair queue (absent means the default tenant)
// and X-Synthd-Priority picks the class — "interactive" (default for
// /synthesize), "batch" (default for /synthesize/batch) or "background".
// An unknown class is a 400.
//
// Error responses are JSON {"error": ..., "kind": ...} where kind is one
// of "invalid" (400, or 413 for an oversized body), "not-found" (404),
// "no-solution" (422), "timeout" (504), "overloaded" (429, circuit
// breaker open or admission queue over its watermarks), "unavailable"
// (503, engine closed or draining) or "panic"/"internal" (500). 429 and
// 503 responses carry a Retry-After header (whole seconds) measured from
// the queue's observed dequeue rate, clamped to [1, 30].
package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"
	"time"

	"switchsynth"
	"switchsynth/internal/admission"
	"switchsynth/internal/faultinject"
	"switchsynth/internal/planio"
	"switchsynth/internal/search"
	"switchsynth/internal/spec"
)

// maxRequestBody bounds /synthesize payloads; the largest supported
// switch spec is a few KB, so 1 MiB is generous.
const maxRequestBody = 1 << 20

// MaxRequestBody is the exported body limit, so the cluster middleware
// (which must read the body to compute the routing key) enforces the
// same bound instead of buffering an unbounded payload.
const MaxRequestBody = maxRequestBody

// maxBatchRequestBody bounds /synthesize/batch payloads: room for
// maxBatchSpecs specs of generous size.
const maxBatchRequestBody = 16 << 20

// maxBatchSpecs bounds how many specs one batch may carry.
const maxBatchSpecs = 1024

// maxPlanBody bounds a PUT /plans/{key} replication push; it matches the
// cluster layer's bound on fetched plans.
const maxPlanBody = 8 << 20

// TenantHeader and PriorityHeader carry the admission identity; the
// cluster middleware forwards both when proxying to a key's owner.
const (
	TenantHeader   = "X-Synthd-Tenant"
	PriorityHeader = "X-Synthd-Priority"
)

// acceptsBinaryPlan reports whether the client explicitly listed the
// binary plan content type in its Accept header. A wildcard is not
// enough — JSON stays the answer for every caller that does not name
// the binary format, so curl and humans never see frames.
func acceptsBinaryPlan(r *http.Request) bool {
	return strings.Contains(r.Header.Get("Accept"), planio.ContentTypeBinary)
}

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
	// Engine selects the optimizer: "search" (default) or "iqp".
	Engine string `json:"engine,omitempty"`
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
		Engine:          ro.Engine,
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
	// ClusterStatus, when non-nil, is rendered as the "cluster" section
	// of the /metrics response (cmd/synthd wires the cluster's Status
	// here). /cluster itself is served by the cluster middleware.
	ClusterStatus func() any
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
			writeError(w, http.StatusMethodNotAllowed, "invalid", fmt.Errorf("POST required"))
			return
		}
		handleSynthesize(e, w, r)
	})
	mux.HandleFunc("/synthesize/batch", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			w.Header().Set("Allow", http.MethodPost)
			writeError(w, http.StatusMethodNotAllowed, "invalid", fmt.Errorf("POST required"))
			return
		}
		handleBatch(e, w, r)
	})
	mux.HandleFunc("/synthesize/stream/", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			w.Header().Set("Allow", http.MethodGet)
			writeError(w, http.StatusMethodNotAllowed, "invalid", fmt.Errorf("GET required"))
			return
		}
		handleStreamKey(e, w, r)
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		snap := e.Snapshot()
		writeJSON(w, http.StatusOK, map[string]any{
			"status":     "ok",
			"workers":    snap.Workers,
			"queueDepth": snap.QueueDepth,
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
			w.Header().Set("Retry-After", strconv.Itoa(retrySeconds(e.RetryAfterHint())))
			writeError(w, http.StatusServiceUnavailable, "unavailable", fmt.Errorf("draining"))
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{"status": "ready"})
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		snap := e.Snapshot()
		if hc.ClusterStatus != nil {
			writeJSON(w, http.StatusOK, struct {
				Snapshot
				Cluster any `json:"cluster"`
			}{snap, hc.ClusterStatus()})
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
			writeError(w, http.StatusMethodNotAllowed, "invalid", fmt.Errorf("GET or PUT required"))
			return
		}
		if key == "" {
			writeJSON(w, http.StatusOK, map[string]any{"keys": e.PlanKeys()})
			return
		}
		data, ok := e.PlanBytes(key)
		if !ok {
			writeError(w, http.StatusNotFound, "not-found", fmt.Errorf("no plan for key %q", key))
			return
		}
		// Peers name the binary content type and get the frame as-is;
		// everyone else — curl, humans, verifyplan over HTTP — gets the
		// JSON file format, transcoded through full decode validation.
		// Plans from an old JSON store serve verbatim either way.
		if planio.IsBinary(data) && !acceptsBinaryPlan(r) {
			jd, err := planio.ToJSON(data)
			if err != nil {
				writeError(w, http.StatusInternalServerError, "internal",
					fmt.Errorf("transcoding plan %q: %w", key, err))
				return
			}
			data = jd
		}
		w.Header().Set("Content-Type", planio.ContentTypeOf(data))
		_, _ = w.Write(data)
	}
	mux.HandleFunc("/plans", plans)
	mux.HandleFunc("/plans/", plans)
	// The persistent fetch channel: same plans, no per-request HTTP
	// envelope. A pre-stream node 404s this path and peers fall back to
	// the GETs above.
	mux.HandleFunc(planio.PlanStreamPath, func(w http.ResponseWriter, r *http.Request) {
		handlePlanStream(e, w, r)
	})
	return mux
}

// handlePlanPush receives a replication or read-repair push
// (PUT /plans/{key} from a peer's cluster layer). The body is handed to
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
			writeError(w, http.StatusRequestEntityTooLarge, "invalid",
				fmt.Errorf("plan exceeds %d bytes", tooLarge.Limit))
			return
		}
		writeError(w, http.StatusBadRequest, "invalid", fmt.Errorf("reading plan: %w", err))
		return
	}
	if err := e.ImportPlan(key, data); err != nil {
		writeError(w, http.StatusUnprocessableEntity, "invalid", err)
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

func handleSynthesize(e *Engine, w http.ResponseWriter, r *http.Request) {
	e.inj.Fire(faultinject.HTTPDelay)
	caller, err := callerFromRequest(r, admission.Interactive)
	if err != nil {
		writeError(w, http.StatusBadRequest, "invalid", err)
		return
	}
	var req SynthesizeRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		// An oversized body is not malformed JSON but a limit violation:
		// report 413 so the client knows shrinking (not fixing) the
		// payload is the remedy. Both paths return the JSON error
		// envelope — never a decoder panic or a bare text body.
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			writeError(w, http.StatusRequestEntityTooLarge, "invalid",
				fmt.Errorf("request body exceeds %d bytes", tooLarge.Limit))
			return
		}
		writeError(w, http.StatusBadRequest, "invalid", fmt.Errorf("parsing request: %w", err))
		return
	}
	if req.Spec == nil {
		writeError(w, http.StatusBadRequest, "invalid", fmt.Errorf("request has no spec"))
		return
	}
	ctx := admission.WithCaller(r.Context(), caller)
	opts := req.Options.toOptions()
	if r.URL.Query().Get("wait") == "proof" {
		streamSynthesize(e, w, req.Spec.Name, req.Options.SVG, func(emit func(*Response, bool) error) (*Response, error) {
			return e.DoStream(ctx, req.Spec, opts, emit)
		})
		return
	}
	resp, err := e.Do(ctx, req.Spec, opts)
	if err != nil {
		status, kind := classifyHTTP(err)
		setRetryAfter(w, e, status, err)
		writeError(w, status, kind, err)
		return
	}
	out, err := buildResponse(req.Spec.Name, resp, req.Options.SVG)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "internal", err)
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
		writeError(w, http.StatusBadRequest, "invalid", err)
		return
	}
	var req BatchRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBatchRequestBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			writeError(w, http.StatusRequestEntityTooLarge, "invalid",
				fmt.Errorf("request body exceeds %d bytes", tooLarge.Limit))
			return
		}
		writeError(w, http.StatusBadRequest, "invalid", fmt.Errorf("parsing request: %w", err))
		return
	}
	if len(req.Specs) == 0 {
		writeError(w, http.StatusBadRequest, "invalid", fmt.Errorf("batch has no specs"))
		return
	}
	if len(req.Specs) > maxBatchSpecs {
		writeError(w, http.StatusRequestEntityTooLarge, "invalid",
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
		switch {
		case oc.Err != nil:
			status, kind := classifyHTTP(oc.Err)
			item.Error, item.Kind, item.Status = oc.Err.Error(), kind, status
			resp.Failed++
		default:
			out, err := buildResponse(req.Specs[i].Spec.Name, oc.Resp, svg[i])
			if err != nil {
				item.Error, item.Kind, item.Status = err.Error(), "internal", http.StatusInternalServerError
				resp.Failed++
				break
			}
			item.Response = out
			if !oc.Dedup && !oc.Resp.CacheHit && !oc.Resp.Coalesced {
				resp.Solves++
			}
		}
		resp.Items[i] = item
	}
	resp.DistinctKeys = len(keys)
	writeJSON(w, http.StatusOK, resp)
}

// handleStreamKey attaches to the in-flight solve of the key in the URL
// path and streams its incumbents as ndjson; a key already cached is a
// single final frame, an unknown key a 404. Frames are presented on the
// solve's canonical spec (the watcher supplied no spec of its own).
func handleStreamKey(e *Engine, w http.ResponseWriter, r *http.Request) {
	key := strings.TrimPrefix(r.URL.Path, "/synthesize/stream/")
	if key == "" {
		writeError(w, http.StatusBadRequest, "invalid", fmt.Errorf("no key in path"))
		return
	}
	streamSynthesize(e, w, "", false, func(emit func(*Response, bool) error) (*Response, error) {
		return e.WatchKey(r.Context(), key, emit)
	})
}

// streamSynthesize runs a streaming solve (DoStream or WatchKey via the
// run callback) and renders it as ndjson: one SynthesizeResponse per
// improving incumbent, then the proven plan with final=true — or, if the
// solve fails, an {"error","kind"} line. Errors before the first frame
// still get a clean status code and Retry-After; after the first frame
// the 200 is committed and the error rides in-band as the last line.
func streamSynthesize(e *Engine, w http.ResponseWriter, name string, svg bool,
	run func(emit func(*Response, bool) error) (*Response, error)) {
	var seq int64
	wrote := false
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	emit := func(resp *Response, final bool) error {
		out, err := buildResponse(frameName(name, resp), resp, svg && final)
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
	status, kind := classifyHTTP(err)
	if !wrote {
		setRetryAfter(w, e, status, err)
		writeError(w, status, kind, err)
		return
	}
	_ = enc.Encode(errorResponse{Error: err.Error(), Kind: kind})
	if flusher != nil {
		flusher.Flush()
	}
}

// frameName picks the display name for a streamed frame: the requester's
// spec name when there is one (DoStream), else the canonical spec's
// (WatchKey, where no requester spec exists).
func frameName(name string, resp *Response) string {
	if name != "" {
		return name
	}
	if resp.Synthesis != nil && resp.Synthesis.Spec != nil {
		return resp.Synthesis.Spec.Name
	}
	return ""
}

// buildResponse renders one engine Response as the wire payload.
func buildResponse(name string, resp *Response, svg bool) (*SynthesizeResponse, error) {
	syn := resp.Synthesis
	plan, err := planio.EncodeWire(syn.Result)
	if err != nil {
		return nil, err
	}
	out := &SynthesizeResponse{
		Name:          name,
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

// classifyHTTP maps engine errors onto HTTP statuses using the typed
// error chains — no string matching.
func classifyHTTP(err error) (int, string) {
	var nosol *spec.ErrNoSolution
	switch {
	case errors.As(err, &nosol):
		return http.StatusUnprocessableEntity, "no-solution"
	case errors.Is(err, &ErrOverloaded{}),
		errors.Is(err, &admission.ErrShed{}):
		return http.StatusTooManyRequests, "overloaded"
	case errors.Is(err, &ErrSolvePanic{}):
		return http.StatusInternalServerError, "panic"
	case errors.Is(err, &search.ErrTimeout{}),
		errors.Is(err, context.DeadlineExceeded),
		errors.Is(err, context.Canceled):
		return http.StatusGatewayTimeout, "timeout"
	case errors.Is(err, ErrEngineClosed),
		errors.Is(err, &admission.ErrDraining{}):
		return http.StatusServiceUnavailable, "unavailable"
	case errors.Is(err, ErrUnknownKey):
		return http.StatusNotFound, "not-found"
	case errors.Is(err, errNilBatchSpec):
		return http.StatusBadRequest, "invalid"
	default:
		var invalid *spec.ValidationError
		if errors.As(err, &invalid) {
			return http.StatusBadRequest, "invalid"
		}
		return http.StatusInternalServerError, "internal"
	}
}

// setRetryAfter attaches a Retry-After header (whole seconds, rounded
// up, clamped to [1, 30]) to shed-load responses. The error's own hint
// wins — the breaker's cooldown remainder, the queue's measured wait
// prediction carried by *admission.ErrShed / *admission.ErrDraining —
// and anything without one falls back to the queue's current measured
// estimate instead of a hardcoded guess.
func setRetryAfter(w http.ResponseWriter, e *Engine, status int, err error) {
	if status != http.StatusTooManyRequests && status != http.StatusServiceUnavailable {
		return
	}
	var (
		over  *ErrOverloaded
		shed  *admission.ErrShed
		drain *admission.ErrDraining
	)
	retry := time.Duration(0)
	switch {
	case errors.As(err, &over):
		retry = over.RetryAfter
	case errors.As(err, &shed):
		retry = shed.RetryAfter
	case errors.As(err, &drain):
		retry = drain.RetryAfter
	}
	if retry <= 0 {
		retry = e.RetryAfterHint()
	}
	w.Header().Set("Retry-After", strconv.Itoa(retrySeconds(retry)))
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
