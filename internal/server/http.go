package server

import (
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"time"

	"dagsfc/internal/core"
	"dagsfc/internal/flowstate"
	"dagsfc/internal/jsonbuf"
	"dagsfc/internal/network"
	"dagsfc/internal/telemetry"
)

// Handler returns the control-plane HTTP API:
//
//	POST   /v1/flows        embed + commit one flow (FlowRequest → FlowInfo)
//	GET    /v1/flows        list committed flows
//	GET    /v1/flows/{id}   one committed flow
//	DELETE /v1/flows/{id}   release a flow's capacity
//	GET    /v1/flows/{id}/events  one flow's journal timeline
//	GET    /v1/events       page the global journal (?since=cursor&limit=n)
//	GET    /v1/network      residual-network snapshot
//	POST   /v1/faults       inject a substrate fault (FaultRequest → FaultState)
//	POST   /v1/faults/restore  restore a previously injected fault
//	GET    /v1/faults       active faults and lifetime counters
//	GET    /healthz         "ok", or 503 once draining or while a WAL disk error has durability off
//	GET    /metrics         telemetry registry (Prometheus text or JSON)
//	/debug/pprof/...        runtime profiles
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/flows", s.handleCreate)
	mux.HandleFunc("GET /v1/flows", s.handleList)
	mux.HandleFunc("GET /v1/flows/{id}", s.handleGet)
	mux.HandleFunc("DELETE /v1/flows/{id}", s.handleDelete)
	mux.HandleFunc("GET /v1/flows/{id}/events", s.handleFlowEvents)
	mux.HandleFunc("GET /v1/events", s.handleEvents)
	mux.HandleFunc("GET /v1/network", s.handleNetwork)
	mux.HandleFunc("POST /v1/faults", s.handleFault(s.ApplyFault))
	mux.HandleFunc("POST /v1/faults/restore", s.handleFault(s.RestoreFault))
	mux.HandleFunc("GET /v1/faults", s.handleFaultList)
	mux.HandleFunc("GET /healthz", s.handleHealth)
	debug := telemetry.DebugMux(telemetry.Default())
	mux.Handle("/metrics", debug)
	mux.Handle("/debug/pprof/", debug)
	return mux
}

// maxBodyBytes is the largest request body the API reads; a longer one is
// refused with 413.
const maxBodyBytes = 1 << 20

// exchange is what a handler needs for one request and keeps for the next:
// the buffer the body is read into and the response encoded into, with
// encoding/json's state kept beside it; the flow request decoded from it,
// whose Chain is refilled in place; and the slot a FlowInfo response is
// encoded from, so that it is not boxed into an interface.
type exchange struct {
	buf  jsonbuf.Buffer
	flow FlowRequest
	info FlowInfo
}

// exchanges recycles them. One that grew past maxPooledBuf (a large network
// snapshot, an oversized request) is left to the collector.
var exchanges = sync.Pool{New: func() any { return new(exchange) }}

const maxPooledBuf = 64 << 10

func (x *exchange) release() {
	x.info = FlowInfo{}
	if x.buf.Cap() <= maxPooledBuf && cap(x.flow.Chain) <= maxPooledBuf/8 {
		exchanges.Put(x)
	}
}

// The Content-Type values the responses share: assigned to the header map
// as they are, where Header.Set would allocate a one-element slice per
// response. Nothing writes to them.
var (
	jsonContentType = []string{"application/json"}
	textContentType = []string{"text/plain; charset=utf-8"}
)

// readJSON reads the whole request body, which must be one JSON value of
// at most maxBodyBytes and nothing after it, and decodes it into v. On
// failure it has answered the request — 413 for a body too long, 400 for
// anything else — and reports false.
func (x *exchange) readJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	x.buf.Reset()
	if _, err := x.buf.ReadFrom(http.MaxBytesReader(w, r.Body, maxBodyBytes)); err != nil {
		status := http.StatusBadRequest
		var tooLong *http.MaxBytesError
		if errors.As(err, &tooLong) {
			status = http.StatusRequestEntityTooLarge
		}
		x.writeJSON(w, status, ErrorBody{Error: "bad body: " + err.Error()})
		return false
	}
	if err := x.buf.Decode(v); err != nil {
		x.writeJSON(w, http.StatusBadRequest, ErrorBody{Error: "bad JSON: " + err.Error()})
		return false
	}
	return true
}

func (s *Server) handleCreate(w http.ResponseWriter, r *http.Request) {
	x := exchanges.Get().(*exchange)
	defer x.release()
	// Everything of the last request goes but the Chain's backing array,
	// which Submit does not keep — zeroed, because encoding/json extends a
	// slice over what its array holds and a null element leaves that be.
	chain := x.flow.Chain[:cap(x.flow.Chain)]
	clear(chain)
	x.flow = FlowRequest{Chain: chain[:0]}
	if !x.readJSON(w, r, &x.flow) {
		return
	}
	info, err := s.Submit(r.Context(), x.flow)
	if err != nil {
		x.writeError(w, err)
		return
	}
	x.writeInfo(w, http.StatusCreated, info)
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	id, ok := flowID(w, r)
	if !ok {
		return
	}
	x := exchanges.Get().(*exchange)
	defer x.release()
	info, err := s.Release(id)
	if err != nil {
		x.writeError(w, err)
		return
	}
	x.writeInfo(w, http.StatusOK, info)
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	id, ok := flowID(w, r)
	if !ok {
		return
	}
	x := exchanges.Get().(*exchange)
	defer x.release()
	info, found := s.Flow(id)
	if !found {
		x.writeJSON(w, http.StatusNotFound, ErrorBody{Error: "no such flow"})
		return
	}
	x.writeInfo(w, http.StatusOK, info)
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Flows())
}

// handleFlowEvents serves one flow's journal timeline. A flow is 404 when
// the journal retains no events for it AND it has no live meta entry —
// evicted tombstones and recently-released flows still answer as long as
// their events survive in the ring — and so is an ID below 1: flow IDs
// start at 1, and the flowless events (faults, breaker) carry 0.
func (s *Server) handleFlowEvents(w http.ResponseWriter, r *http.Request) {
	id, ok := flowID(w, r)
	if !ok {
		return
	}
	if id < 1 {
		writeJSON(w, http.StatusNotFound, ErrorBody{Error: "no such flow (flow IDs start at 1)"})
		return
	}
	limit, ok := queryInt(w, r, "limit", 0)
	if !ok {
		return
	}
	events := s.journal.Flow(id, limit)
	if len(events) == 0 {
		if _, known := s.Flow(id); !known {
			writeJSON(w, http.StatusNotFound, ErrorBody{Error: "no such flow (no journal events retained)"})
			return
		}
	}
	writeJSON(w, http.StatusOK, EventsPage{Events: events})
}

// handleEvents pages the global journal: ?since= is the cursor returned
// as next by the previous page (0 from the beginning), ?limit= bounds the
// page size (default 256, 0 keeps the default — the full ring can be
// large).
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	limit, ok := queryInt(w, r, "limit", 256)
	if !ok {
		return
	}
	var since uint64
	if raw := r.URL.Query().Get("since"); raw != "" {
		v, err := strconv.ParseUint(raw, 10, 64)
		if err != nil {
			writeJSON(w, http.StatusBadRequest, ErrorBody{Error: "since must be a non-negative integer"})
			return
		}
		since = v
	}
	events, next, missed := s.journal.Since(since, limit)
	writeJSON(w, http.StatusOK, EventsPage{Events: events, Next: next, Missed: missed})
}

// queryInt parses an optional non-negative integer query parameter.
func queryInt(w http.ResponseWriter, r *http.Request, name string, def int) (int, bool) {
	raw := r.URL.Query().Get(name)
	if raw == "" {
		return def, true
	}
	v, err := strconv.Atoi(raw)
	if err != nil || v < 0 {
		writeJSON(w, http.StatusBadRequest, ErrorBody{Error: name + " must be a non-negative integer"})
		return 0, false
	}
	if v == 0 {
		return def, true
	}
	return v, true
}

func (s *Server) handleNetwork(w http.ResponseWriter, r *http.Request) {
	begin := time.Now()
	st := s.NetworkState()
	telemetry.RecordServerRequest("network", "ok", time.Since(begin))
	writeJSON(w, http.StatusOK, st)
}

// handleFault decodes a wire fault and applies the given transition
// (ApplyFault or RestoreFault), returning the resulting fault state.
func (s *Server) handleFault(apply func(network.Fault) (FaultState, error)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		x := exchanges.Get().(*exchange)
		defer x.release()
		var req FaultRequest
		if !x.readJSON(w, r, &req) {
			return
		}
		f, err := flowstate.FaultFromWire(req)
		if err != nil {
			x.writeError(w, fmt.Errorf("%w: %v", ErrBadRequest, err))
			return
		}
		st, err := apply(f)
		if err != nil {
			x.writeError(w, err)
			return
		}
		x.writeJSON(w, http.StatusOK, st)
	}
}

func (s *Server) handleFaultList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Faults())
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	if s.Draining() {
		writeJSON(w, http.StatusServiceUnavailable, ErrorBody{Error: "draining"})
		return
	}
	if s.walBroken.Load() {
		writeJSON(w, http.StatusServiceUnavailable, ErrorBody{Error: "wal broken"})
		return
	}
	w.Header()["Content-Type"] = textContentType
	_, _ = w.Write([]byte("ok\n"))
}

func flowID(w http.ResponseWriter, r *http.Request) (int64, bool) {
	id, err := strconv.ParseInt(r.PathValue("id"), 10, 64)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, ErrorBody{Error: "flow id must be an integer"})
		return 0, false
	}
	return id, true
}

// writeError maps pipeline outcomes onto HTTP status codes. Breaker
// rejections additionally carry a Retry-After header with the cooldown
// remaining, rounded up to whole seconds.
func (x *exchange) writeError(w http.ResponseWriter, err error) {
	status := http.StatusInternalServerError
	switch {
	case errors.Is(err, ErrBadRequest):
		status = http.StatusBadRequest
	case errors.Is(err, ErrNotFound):
		status = http.StatusNotFound
	case errors.Is(err, ErrQueueFull):
		status = http.StatusTooManyRequests
	case errors.Is(err, ErrOverloaded):
		status = http.StatusServiceUnavailable
		var oe *OverloadedError
		if errors.As(err, &oe) {
			secs := int(oe.RetryAfter.Seconds())
			if time.Duration(secs)*time.Second < oe.RetryAfter || secs < 1 {
				secs++
			}
			w.Header().Set("Retry-After", strconv.Itoa(secs))
		}
	case errors.Is(err, ErrDraining):
		status = http.StatusServiceUnavailable
	case errors.Is(err, ErrTimeout):
		status = http.StatusGatewayTimeout
	case errors.Is(err, ErrCommitConflict):
		status = http.StatusConflict
	case errors.Is(err, core.ErrNoEmbedding):
		status = http.StatusUnprocessableEntity
	}
	x.writeJSON(w, status, ErrorBody{Error: err.Error()})
}

// writeJSON encodes v into the buffer and sends it with one Write, so a
// value that cannot be encoded is a 500 rather than a 200 cut short.
func (x *exchange) writeJSON(w http.ResponseWriter, status int, v any) {
	if err := x.buf.Encode(v); err != nil {
		status = http.StatusInternalServerError
		_ = x.buf.Encode(ErrorBody{Error: "encoding response: " + err.Error()})
	}
	w.Header()["Content-Type"] = jsonContentType
	w.WriteHeader(status)
	_, _ = w.Write(x.buf.Bytes())
}

// writeInfo sends info from the exchange's own slot.
func (x *exchange) writeInfo(w http.ResponseWriter, status int, info FlowInfo) {
	x.info = info
	x.writeJSON(w, status, &x.info)
}

// writeJSON is the exchange's writeJSON on an exchange of its own, for the
// handlers that hold none.
func writeJSON(w http.ResponseWriter, status int, v any) {
	x := exchanges.Get().(*exchange)
	defer x.release()
	x.writeJSON(w, status, v)
}
