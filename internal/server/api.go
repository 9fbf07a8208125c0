package server

import (
	"errors"
	"fmt"
	"time"

	"dagsfc/internal/flowstate"
	"dagsfc/internal/journal"
)

// This file defines the JSON wire types of the control-plane API and the
// sentinel errors the admission pipeline classifies outcomes with. The
// typed client (internal/server/client) shares these types, so a Go
// caller round-trips through the same structs the handlers encode.

// FlowRequest is the body of POST /v1/flows: one flow to embed and
// commit. Exactly one of SFC (the layered "1;2,3" CLI syntax) or Chain
// (a sequential category list, standardized server-side into its hybrid
// DAG form via the parallelizability rules) must be set.
type FlowRequest struct {
	SFC   string `json:"sfc,omitempty"`
	Chain []int  `json:"chain,omitempty"`
	// MaxWidth bounds the parallel set size when standardizing Chain
	// (0 means the paper's default of 3).
	MaxWidth int     `json:"max_width,omitempty"`
	Src      int     `json:"src"`
	Dst      int     `json:"dst"`
	Rate     float64 `json:"rate"`
	Size     float64 `json:"size"`
	// TTLSeconds auto-releases the flow after this holding time; 0 means
	// the flow lives until released.
	TTLSeconds float64 `json:"ttl_seconds,omitempty"`
	// Alg names the flow's embedding algorithm ("mbbe", the default, "bbe",
	// "minv", "ranv", or a name registered through Config.Embedders).
	Alg string `json:"alg,omitempty"`
	// Protection selects the flow's protection class: "" or
	// ProtectionNone for an unprotected flow, ProtectionBackup to also
	// reserve a disjoint backup embedding (link-disjoint always,
	// node-disjoint when the substrate allows) that a fault hitting the
	// primary promotes in place — failover instead of strand-and-repair.
	// Requires a ban-capable algorithm (the builtin tree searches).
	Protection string `json:"protection,omitempty"`
}

// Protection classes for FlowRequest.Protection.
const (
	ProtectionNone   = "none"
	ProtectionBackup = flowstate.ProtectionBackup
)

// The flow record's wire types live with the state machine that owns the
// records (internal/flowstate); the API re-exports them.
type (
	Cost         = flowstate.Cost
	FlowInfo     = flowstate.FlowInfo
	FaultRequest = flowstate.FaultRequest
)

// Flow lifecycle states and eviction causes (see flowstate).
const (
	FlowStateActive     = flowstate.StateActive
	FlowStateRepairing  = flowstate.StateRepairing
	FlowStateEvicted    = flowstate.StateEvicted
	CauseProtectionLost = flowstate.CauseProtectionLost
)

// FaultState is the response of the fault endpoints: the faults currently
// quarantining capacity, lifetime apply/restore counters, and the restore
// controller's backlog (Server.PendingRepairs) when the answer was made.
type FaultState struct {
	Active         []FaultRequest `json:"active"`
	Applied        int            `json:"applied"`
	Restored       int            `json:"restored"`
	PendingRepairs int            `json:"pending_repairs"`
}

// LinkState is one link's residual bandwidth in GET /v1/network.
type LinkState struct {
	ID       int     `json:"id"`
	From     int     `json:"from"`
	To       int     `json:"to"`
	Capacity float64 `json:"capacity"`
	Residual float64 `json:"residual"`
}

// InstanceState is one VNF instance's residual capacity in GET /v1/network.
type InstanceState struct {
	Node     int     `json:"node"`
	VNF      int     `json:"vnf"`
	Capacity float64 `json:"capacity"`
	Residual float64 `json:"residual"`
}

// NetworkState is the GET /v1/network response: a consistent snapshot of
// the live residual network (the paper's real-time network graph G_1).
type NetworkState struct {
	Nodes       int             `json:"nodes"`
	ActiveFlows int             `json:"active_flows"`
	Links       []LinkState     `json:"links"`
	Instances   []InstanceState `json:"instances"`
}

// EventsPage is the response of the journal endpoints: one page of
// flight-recorder events. For GET /v1/events, Next is the cursor to pass
// as ?since= for the following page and Missed counts events the ring
// overwrote before the cursor was read (a lagging consumer sees exactly
// how much it lost, never a silent gap). For GET /v1/flows/{id}/events,
// Next and Missed are zero — the flow timeline is not paged.
type EventsPage struct {
	Events []journal.Event `json:"events"`
	Next   uint64          `json:"next,omitempty"`
	Missed uint64          `json:"missed,omitempty"`
}

// ErrorBody is the JSON error envelope every non-2xx response carries.
type ErrorBody struct {
	Error string `json:"error"`
}

// Admission-pipeline outcomes. The HTTP layer maps these onto status
// codes; in-process callers (tests, the load generator's self-serve
// mode) match them with errors.Is.
var (
	// ErrQueueFull rejects a request the bounded admission queue cannot
	// hold (HTTP 429).
	ErrQueueFull = errors.New("server: admission queue full")
	// ErrDraining rejects a request that arrived after shutdown began
	// (HTTP 503).
	ErrDraining = errors.New("server: draining, not admitting new flows")
	// ErrTimeout rejects a request whose per-request deadline expired
	// before an embed decision was reached (HTTP 504).
	ErrTimeout = errors.New("server: request timed out")
	// ErrCommitConflict rejects a request whose speculative embedding
	// kept losing capacity to concurrent commits (HTTP 409).
	ErrCommitConflict = errors.New("server: commit conflict, capacity taken by a concurrent flow")
	// ErrNotFound marks an unknown flow ID (HTTP 404).
	ErrNotFound = errors.New("server: no such flow")
	// ErrBadRequest marks an unparsable or invalid flow request (HTTP 400).
	ErrBadRequest = errors.New("server: bad request")
	// ErrOverloaded rejects a request shed by the admission circuit
	// breaker (HTTP 503 with Retry-After). The concrete error is an
	// *OverloadedError carrying the suggested wait.
	ErrOverloaded = errors.New("server: overloaded, admission breaker open")
	// ErrInternal marks a pipeline failure that is the server's fault, not
	// the request's — a recovered embedder panic (HTTP 500).
	ErrInternal = errors.New("server: internal error")
)

// OverloadedError is the concrete breaker rejection: errors.Is-equal to
// ErrOverloaded, plus the cooldown remaining before admissions may
// resume (the HTTP layer's Retry-After header).
type OverloadedError struct {
	RetryAfter time.Duration
}

func (e *OverloadedError) Error() string {
	return fmt.Sprintf("%v (retry after %v)", ErrOverloaded, e.RetryAfter.Round(time.Millisecond))
}

// Is makes errors.Is(err, ErrOverloaded) match.
func (e *OverloadedError) Is(target error) bool { return target == ErrOverloaded }
