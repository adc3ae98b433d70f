// Package httpapi is envmon's one HTTP serving path: the wire layer of
// both envmond and envfedd. A Server answers the endpoints below from a
// Backend — a local telemetry.Store (New) or a federation of daemons
// (federation.NewServer) — and owns everything the two fronts share:
// parameter parsing and validation, the 404 rule, the method check, the
// shutdown guard, per-endpoint metrics and the access log. The package
// also defines the JSON document types, which the client package shares,
// so the two sides cannot drift.
//
// Endpoints (all GET):
//
//	/healthz  liveness + store counters + the simulation's current time
//	/query    frames for matching series over a window
//	/topk     nodes ranked by mean power over a window
//	/metrics  Prometheus-text exposition, once instrumented
//
// plus the routes a front adds with Handle: /series (every stored series
// with unit and sample counts) on a store, /members on a federation.
//
// Durations in query parameters use Go syntax ("90s", "5m"); timestamps in
// responses are nanoseconds since the simulation epoch, matching the trace
// CSV encoding.
package httpapi

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"envmon/internal/obs"
	"envmon/internal/telemetry"
)

// SourceHealth is one member of a collection chain: the access method and
// its circuit breaker's position.
type SourceHealth struct {
	Method string `json:"method"`
	State  string `json:"state"` // closed | open | half-open
	Trips  int    `json:"trips"`
}

// BackendHealth is one resilient collection chain's state on one node.
type BackendHealth struct {
	Node    string         `json:"node,omitempty"`
	Method  string         `json:"method"` // the chain's primary method
	Sources []SourceHealth `json:"sources"`
}

// StorageHealth is the persistence section of /healthz, present when the
// daemon runs with a data directory: the block and journal tiers' sizes
// plus what the last restart recovered.
type StorageHealth struct {
	DataDir          string `json:"data_dir"`
	Blocks           int    `json:"blocks"`
	BlockBytes       int64  `json:"block_bytes"`
	WALBytes         int64  `json:"wal_bytes"`
	Compactions      uint64 `json:"compactions"`
	ReadErrors       uint64 `json:"read_errors,omitempty"`
	RecoveredSeries  int    `json:"recovered_series,omitempty"`
	RecoveredSamples uint64 `json:"recovered_samples,omitempty"`
	RecoveredGaps    uint64 `json:"recovered_gaps,omitempty"`
	LostRecords      uint64 `json:"lost_records,omitempty"`
}

// Health is the /healthz document. Status is "ok", or "degraded" when any
// reported breaker is open — the daemon is still serving, but some backend
// is down and its series are accumulating gaps instead of samples. A
// federation front-end (envfedd) serves the same document with the
// counters summed across members and the Federation section filled in.
type Health struct {
	Status     string            `json:"status"`
	Series     int               `json:"series"`
	Samples    uint64            `json:"samples"`
	Gaps       uint64            `json:"gaps"`
	SimNowNS   int64             `json:"sim_now_ns"`
	Faults     string            `json:"faults,omitempty"` // active fault plan, if injecting
	Storage    *StorageHealth    `json:"storage,omitempty"`
	Backends   []BackendHealth   `json:"backends,omitempty"`
	Federation *FederationHealth `json:"federation,omitempty"`
}

// FederationHealth is the federation section of a front-end's /healthz:
// how many downstream daemons it fans out to and which did not answer.
type FederationHealth struct {
	Members   int             `json:"members"`
	Healthy   int             `json:"healthy"`
	Degraded  int             `json:"degraded,omitempty"` // members answering but self-reporting degraded
	Missing   []MissingMember `json:"missing,omitempty"`
	SimSkewNS int64           `json:"sim_skew_ns,omitempty"` // max − min member sim-now
}

// MissingMember is one downstream daemon a federated response could not
// include: the member-level analogue of a gap marker. A response carrying
// MissingMember entries is explicitly partial — never a silent zero.
type MissingMember struct {
	Member string `json:"member"`
	URL    string `json:"url,omitempty"`
	Reason string `json:"reason"`          // last error, or "breaker open"
	State  string `json:"state,omitempty"` // breaker position
}

// Degraded is the partial-result section attached to /query and /topk
// documents when at least one member was unreachable. Responded counts the
// members whose data the document does include.
type Degraded struct {
	Members   int             `json:"members"`
	Responded int             `json:"responded"`
	Missing   []MissingMember `json:"missing"`
}

// MemberInfo is one entry of a federation front-end's /members document.
type MemberInfo struct {
	Name      string `json:"name"`
	URL       string `json:"url"`
	State     string `json:"state"` // breaker position: closed | open | half-open
	Trips     int    `json:"trips"`
	LastError string `json:"last_error,omitempty"`
}

// MembersResult is the /members document.
type MembersResult struct {
	Members []MemberInfo `json:"members"`
}

// SeriesInfo is one entry of the /series document. Persisted reports how
// many leading samples are sealed on disk (absent on a memory-only store);
// OldestNS is the oldest retrievable sample — with a data directory that
// is the series' first sample ever, since blocks retain evicted history.
type SeriesInfo struct {
	Node      string `json:"node"`
	Backend   string `json:"backend"`
	Domain    string `json:"domain"`
	Unit      string `json:"unit"`
	Samples   uint64 `json:"samples"`
	Gaps      uint64 `json:"gaps,omitempty"`
	Persisted uint64 `json:"persisted,omitempty"`
	OldestNS  int64  `json:"oldest_ns"`
	NewestNS  int64  `json:"newest_ns"`
}

// SeriesResult is the /series document.
type SeriesResult struct {
	Series []SeriesInfo `json:"series"`
}

// Point is one frame point: a raw sample or one rollup bucket.
type Point struct {
	TNS   int64   `json:"t_ns"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
	Mean  float64 `json:"mean"`
	Last  float64 `json:"last"`
	Count int     `json:"count"`
}

// Frame is one series' result in the /query document. GapsNS marks the
// failed-poll instants inside the window: explicit "no data here" markers,
// never encoded as zero-valued points.
type Frame struct {
	Node       string   `json:"node"`
	Backend    string   `json:"backend"`
	Domain     string   `json:"domain"`
	Unit       string   `json:"unit"`
	Resolution string   `json:"resolution"`
	Reduced    *float64 `json:"reduced,omitempty"`
	Points     []Point  `json:"points"`
	GapsNS     []int64  `json:"gaps_ns,omitempty"`
}

// QueryResult is the /query document. SimNowNS and NewestNS are the
// response's freshness metadata: the server's simulated now at answer
// time and the newest point timestamp across the returned frames (0 when
// no frame has points) — together they let a caller distinguish "fresh
// zero" from "stale frame" without a second /healthz round trip. On a
// federated endpoint SimNowNS is the minimum across answering members
// (the conservative view: data can be no fresher than the laggiest
// member's clock) and Degraded is present when a member was unreachable.
type QueryResult struct {
	Frames   []Frame   `json:"frames"`
	SimNowNS int64     `json:"sim_now_ns,omitempty"`
	NewestNS int64     `json:"newest_ns,omitempty"`
	Degraded *Degraded `json:"degraded,omitempty"`
}

// NodePower is one entry of the /topk ranking.
type NodePower struct {
	Node   string  `json:"node"`
	Watts  float64 `json:"watts"`
	Series int     `json:"series"`
}

// TopKResult is the /topk document. SimNowNS is the server's simulated
// now at answer time (on a federated endpoint, the minimum across
// answering members); Degraded is present only on a federated endpoint
// that could not reach every member.
type TopKResult struct {
	Domain     string      `json:"domain"`
	TotalWatts float64     `json:"total_watts"`
	SimNowNS   int64       `json:"sim_now_ns,omitempty"`
	Nodes      []NodePower `json:"nodes"`
	Degraded   *Degraded   `json:"degraded,omitempty"`
}

// ErrorBody is the JSON body of every non-200 response.
type ErrorBody struct {
	Error string `json:"error"`
}

// maxTopK bounds the /topk k parameter: a ranking is for operators
// eyeballing the worst offenders, and a request for millions of rows is a
// typo or an abuse, not a question. (k=0, "rank everyone", stays valid —
// the result is bounded by the node count.)
const maxTopK = 10000

// Backend is what a Server answers /healthz, /query and /topk from: a
// local store (see New) or a federation of daemons. ctx carries the
// request's deadline — deadline_ms, else the server's DefaultDeadline —
// and a backend answers by then, with a partial document or an error.
// A backend that also has an Instrument(*obs.Registry) method registers
// its own metrics when the server is instrumented.
type Backend interface {
	Query(ctx context.Context, q telemetry.Query) (QueryResult, error)
	TopK(ctx context.Context, k int, domain string, from, to time.Duration, res telemetry.Resolution) (TopKResult, error)
	Health(ctx context.Context) Health
}

// errClosing answers a data-plane request once shutdown has begun.
var errClosing = errors.New("store is closing")

// Server serves a Backend. It implements http.Handler.
type Server struct {
	backend  Backend
	prefix   string // metric-name prefix: envmon for a store, envfed for a federation
	mux      *http.ServeMux
	routes   []string // endpoint labels of the routes added by Handle
	breakers func() []BackendHealth
	faults   string

	// DefaultDeadline bounds a request that carries no deadline_ms
	// (0 leaves it unbounded). A wiring-time setting.
	DefaultDeadline time.Duration

	// obs and accessLog share one timing path in ServeHTTP: requests are
	// wrapped in a status-capturing writer only when at least one of them
	// is set, so an unobserved server serves exactly as before. Both are
	// wiring-time settings, installed before the server is shared.
	obs       *serverObs
	accessLog func(method, path string, status int, d time.Duration, bytes int64)

	// closing turns data-plane requests into immediate 503s once the
	// daemon has begun shutting down, so a query racing Store.Close gets a
	// JSON error instead of a hung or half-served connection.
	closing atomic.Bool
}

// serverObs holds the per-endpoint metric handles, interned at
// Instrument time so the request path never touches the registry lock
// (except on error responses, which intern a per-status counter).
type serverObs struct {
	reg       *obs.Registry
	errors    string // the error counter's family name
	endpoints map[string]*endpointMetrics
}

type endpointMetrics struct {
	requests *obs.Counter
	latency  *obs.Histogram
	bytes    *obs.Counter
}

// endpoint returns the label and handles for a request path. Paths
// outside the served routes fold into "other" so cardinality is bounded
// no matter what clients probe.
func (o *serverObs) endpoint(path string) (string, *endpointMetrics) {
	if ep, ok := strings.CutPrefix(path, "/"); ok {
		if em, ok := o.endpoints[ep]; ok {
			return ep, em
		}
	}
	return "other", o.endpoints["other"]
}

// NewServer returns a server over b with /healthz, /query and /topk.
// metricPrefix names the daemon in its metric families
// (<prefix>_http_requests_total and so on).
func NewServer(b Backend, metricPrefix string) *Server {
	s := &Server{backend: b, prefix: metricPrefix, mux: http.NewServeMux()}
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/query", s.handleQuery)
	s.mux.HandleFunc("/topk", s.handleTopK)
	return s
}

// Handle adds a data-plane route answering doc's result as JSON, behind
// the same method check, closing guard, metrics and access log as /query.
// Its endpoint label is path without the leading slash. Call at wiring
// time, before Instrument.
func (s *Server) Handle(path string, doc func() (any, error)) {
	s.routes = append(s.routes, path[1:])
	s.mux.HandleFunc(path, func(w http.ResponseWriter, r *http.Request) {
		if s.unavailable(w) {
			return
		}
		out, err := doc()
		reply(w, out, err, 0)
	})
}

// StartClosing flips the server into shutdown mode: every subsequent
// data-plane request (/query, /topk and the routes added by Handle) is
// answered immediately with a 503 JSON error. Call when shutdown begins,
// before the backend closes — it makes the "query races SIGTERM" window
// an explicit error instead of a connection that hangs in
// http.Server.Shutdown's drain.
func (s *Server) StartClosing() { s.closing.Store(true) }

// unavailable answers a data-plane request during shutdown; it reports
// whether the request was intercepted.
func (s *Server) unavailable(w http.ResponseWriter) bool {
	if !s.closing.Load() {
		return false
	}
	reply(w, nil, errClosing, 0)
	return true
}

// SetBreakers installs a provider of per-backend breaker state for
// /healthz. The provider is called per request and must be safe for
// concurrent use (resilience chains guard their status with a lock).
func (s *Server) SetBreakers(f func() []BackendHealth) { s.breakers = f }

// SetFaults records the active fault-injection plan for /healthz, so an
// operator can tell a chaos drill from a real outage.
func (s *Server) SetFaults(plan string) { s.faults = plan }

// Instrument registers per-endpoint request metrics in reg, and the
// backend's own metrics if it has any, and mounts reg's /metrics
// exposition on the server's mux. Call at wiring time, before the server
// is shared.
func (s *Server) Instrument(reg *obs.Registry) {
	if reg == nil {
		return
	}
	if b, ok := s.backend.(interface{ Instrument(*obs.Registry) }); ok {
		b.Instrument(reg)
	}
	p := s.prefix + "_http_"
	o := &serverObs{reg: reg, errors: p + "errors_total", endpoints: make(map[string]*endpointMetrics)}
	for _, ep := range append([]string{"healthz", "query", "topk", "metrics", "other"}, s.routes...) {
		o.endpoints[ep] = &endpointMetrics{
			requests: reg.Counter(p+"requests_total",
				"HTTP requests served, by endpoint.", "endpoint", ep),
			latency: reg.Histogram(p+"request_seconds",
				"HTTP request handling latency, by endpoint.", obs.DefLatencyBuckets, "endpoint", ep),
			bytes: reg.Counter(p+"response_bytes_total",
				"HTTP response body bytes written, by endpoint.", "endpoint", ep),
		}
	}
	s.obs = o
	s.mux.Handle("/metrics", reg.Handler())
}

// SetAccessLog installs a structured access-log callback sharing the
// metrics' timing path: one clock read per request serves both. The
// callback runs on the request goroutine and must be safe for concurrent
// use. Call at wiring time.
func (s *Server) SetAccessLog(f func(method, path string, status int, d time.Duration, bytes int64)) {
	s.accessLog = f
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if s.obs == nil && s.accessLog == nil {
		s.serve(w, r)
		return
	}
	start := time.Now()
	sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
	s.serve(sw, r)
	d := time.Since(start)
	if o := s.obs; o != nil {
		ep, em := o.endpoint(r.URL.Path)
		em.requests.Inc()
		em.latency.ObserveDuration(d)
		em.bytes.Add(uint64(sw.bytes))
		if sw.status >= 400 {
			// Interned on first occurrence per (endpoint, code): error
			// responses are off the hot path, and enumerating every status
			// code upfront would be cardinality for nothing.
			o.reg.Counter(o.errors,
				"HTTP error responses, by endpoint and status code.",
				"endpoint", ep, "code", strconv.Itoa(sw.status)).Inc()
		}
	}
	if s.accessLog != nil {
		s.accessLog(r.Method, r.URL.Path, sw.status, d, sw.bytes)
	}
}

func (s *Server) serve(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeJSON(w, http.StatusMethodNotAllowed, ErrorBody{Error: "GET only"})
		return
	}
	s.mux.ServeHTTP(w, r)
}

// statusWriter captures the response status and body size for the
// metrics and access-log paths.
type statusWriter struct {
	http.ResponseWriter
	status int
	bytes  int64
	wrote  bool
}

func (w *statusWriter) WriteHeader(code int) {
	if !w.wrote {
		w.status = code
		w.wrote = true
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	w.wrote = true
	n, err := w.ResponseWriter.Write(p)
	w.bytes += int64(n)
	return n, err
}

func writeJSON(w http.ResponseWriter, status int, doc any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	_ = enc.Encode(doc)
}

func badRequest(w http.ResponseWriter, err error) {
	writeJSON(w, http.StatusBadRequest, ErrorBody{Error: err.Error()})
}

// reply writes doc, or err as a JSON error: 503 while the backend is
// closing, 504 once the request's deadline has passed, 500 otherwise.
func reply(w http.ResponseWriter, doc any, err error, deadline time.Duration) {
	switch {
	case err == nil:
		writeJSON(w, http.StatusOK, doc)
	case errors.Is(err, errClosing):
		writeJSON(w, http.StatusServiceUnavailable, ErrorBody{Error: err.Error()})
	case errors.Is(err, context.DeadlineExceeded):
		writeJSON(w, http.StatusGatewayTimeout,
			ErrorBody{Error: fmt.Sprintf("deadline %v exceeded", deadline)})
	default:
		writeJSON(w, http.StatusInternalServerError, ErrorBody{Error: err.Error()})
	}
}

// requestContext bounds a request by d, its deadline_ms, or else by the
// server's DefaultDeadline, and returns the bound it applied (0 = none).
func (s *Server) requestContext(r *http.Request, d time.Duration) (context.Context, context.CancelFunc, time.Duration) {
	if d <= 0 {
		d = s.DefaultDeadline
	}
	if d <= 0 {
		return r.Context(), func() {}, 0
	}
	ctx, cancel := context.WithTimeout(r.Context(), d)
	return ctx, cancel, d
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	// A malformed deadline_ms falls back to the default: /healthz takes
	// no parameters of its own, and a liveness probe is never a 400.
	d, _ := ParseDeadline(r)
	ctx, cancel, _ := s.requestContext(r, d)
	defer cancel()
	h := s.backend.Health(ctx)
	if s.faults != "" {
		h.Faults = s.faults
	}
	if s.breakers != nil {
		h.Backends = s.breakers()
		// Chains register concurrently at startup, so the provider's order
		// is nondeterministic; sort so /healthz is byte-stable across
		// requests and restarts (scrapers and tests diff it).
		sort.Slice(h.Backends, func(i, j int) bool {
			if h.Backends[i].Node != h.Backends[j].Node {
				return h.Backends[i].Node < h.Backends[j].Node
			}
			return h.Backends[i].Method < h.Backends[j].Method
		})
		for _, b := range h.Backends {
			for _, src := range b.Sources {
				if src.State == "open" {
					h.Status = "degraded"
				}
			}
		}
	}
	writeJSON(w, http.StatusOK, h)
}

// ParseDeadline reads the optional deadline_ms parameter: how long the
// caller is willing to wait for the result. Zero means no deadline.
func ParseDeadline(r *http.Request) (time.Duration, error) {
	v := r.FormValue("deadline_ms")
	if v == "" {
		return 0, nil
	}
	ms, err := strconv.Atoi(v)
	if err != nil || ms <= 0 {
		return 0, fmt.Errorf("bad deadline_ms %q: must be a positive integer", v)
	}
	return time.Duration(ms) * time.Millisecond, nil
}

// parseScan reads the parameters /query and /topk share, in the order
// their errors are reported: the window (Go duration syntax; empty means
// unbounded), deadline_ms, then res.
func parseScan(r *http.Request) (from, to, deadline time.Duration, res telemetry.Resolution, err error) {
	if v := r.FormValue("from"); v != "" {
		if from, err = time.ParseDuration(v); err != nil {
			return 0, 0, 0, 0, fmt.Errorf("bad from %q: %v", v, err)
		}
	}
	if v := r.FormValue("to"); v != "" {
		if to, err = time.ParseDuration(v); err != nil {
			return 0, 0, 0, 0, fmt.Errorf("bad to %q: %v", v, err)
		}
	}
	if deadline, err = ParseDeadline(r); err != nil {
		return 0, 0, 0, 0, err
	}
	res, err = telemetry.ParseResolution(r.FormValue("res"))
	return from, to, deadline, res, err
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	if s.unavailable(w) {
		return
	}
	from, to, deadline, res, err := parseScan(r)
	if err != nil {
		badRequest(w, err)
		return
	}
	agg, err := telemetry.ParseAggregate(r.FormValue("agg"))
	if err != nil {
		badRequest(w, err)
		return
	}
	q := telemetry.Query{
		Node:       r.FormValue("node"),
		Backend:    r.FormValue("backend"),
		Domain:     r.FormValue("domain"),
		From:       from,
		To:         to,
		Resolution: res,
		Aggregate:  agg,
	}
	ctx, cancel, deadline := s.requestContext(r, deadline)
	defer cancel()
	out, err := s.backend.Query(ctx, q)
	// A query returns one frame per matching series regardless of window,
	// so zero frames under a filter means the series key does not exist —
	// a 404, distinguishable from an empty window (200 with empty points).
	// An unfiltered query over an empty store stays 200: "nothing stored
	// yet" is a valid answer to "show me everything". A degraded answer is
	// never a 404: with members missing, the honest answer is a 200
	// partial result ("can't say; these racks are dark"), not a claim that
	// the series does not exist.
	filtered := q.Node != "" || q.Backend != "" || q.Domain != ""
	if err == nil && len(out.Frames) == 0 && filtered && out.Degraded == nil {
		writeJSON(w, http.StatusNotFound, ErrorBody{Error: "no matching series"})
		return
	}
	reply(w, out, err, deadline)
}

func (s *Server) handleTopK(w http.ResponseWriter, r *http.Request) {
	if s.unavailable(w) {
		return
	}
	from, to, deadline, res, err := parseScan(r)
	if err != nil {
		badRequest(w, err)
		return
	}
	k := 10
	if v := r.FormValue("k"); v != "" {
		k, err = strconv.Atoi(v)
		if err != nil {
			badRequest(w, fmt.Errorf("bad k %q: %v", v, err))
			return
		}
		if k < 0 {
			badRequest(w, fmt.Errorf("bad k %d: must be non-negative", k))
			return
		}
		if k > maxTopK {
			badRequest(w, fmt.Errorf("bad k %d: exceeds maximum %d", k, maxTopK))
			return
		}
	}
	ctx, cancel, deadline := s.requestContext(r, deadline)
	defer cancel()
	out, err := s.backend.TopK(ctx, k, r.FormValue("domain"), from, to, res)
	reply(w, out, err, deadline)
}
