package main

import (
	"bytes"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"envmon/internal/core"
)

// mechName names a collection mechanism for metric keys:
// "rapl.msr", "xeon_phi.sysmgmt_api", "nvml.nvml".
func mechName(k core.BackendKey) string {
	clean := func(s string) string {
		return strings.ReplaceAll(strings.ToLower(strings.TrimSpace(s)), " ", "_")
	}
	return clean(k.Platform.String()) + "." + clean(k.Method)
}

// traceCollectors returns a registry that builds base's collectors with
// every CollectInto timed into t: a span per poll and per-mechanism call
// and host-time counters. The same decorator shape as obs.Decorate.
func traceCollectors(base *core.Registry, t *tracer) *core.Registry {
	out := core.NewRegistry()
	for _, key := range base.Keys() {
		key := key
		out.Register(key, func(target any) (core.Collector, error) {
			col, err := base.Build(key, target)
			if err != nil {
				return nil, err
			}
			return &tracedCollector{Collector: col, t: t, stat: t.mech(mechName(key))}, nil
		})
	}
	return out
}

type tracedCollector struct {
	core.Collector
	t    *tracer
	stat *mechStat
}

func (c *tracedCollector) Collect(now time.Duration) ([]core.Reading, error) {
	return c.CollectInto(nil, now)
}

func (c *tracedCollector) CollectInto(buf []core.Reading, now time.Duration) ([]core.Reading, error) {
	start := c.t.now()
	out, err := core.CollectInto(c.Collector, buf, now)
	end := c.t.now()
	c.stat.calls.Add(1)
	c.stat.ns.Add(end - start)
	c.t.add(span{name: "moneq.collect", op: c.t.op.Load(), start: start, end: end})
	return out, err
}

// handlers wraps every HTTP handler of a workload's serving stack. It
// counts requests in flight, so the benchmark can wait for the servers to go
// idle between operations, records the status of each front response,
// and, when a tracer is active, records a span per request. With capture
// on it also keeps copies of the member response bodies, which the merge
// step is then timed on.
type handlers struct {
	tr       atomic.Pointer[tracer]
	inflight atomic.Int64
	capture  atomic.Bool

	mu         sync.Mutex
	captured   []capturedBody
	frontCode  int   // status of the last front response
	frontBytes int64 // body bytes of the last front response
}

type capturedBody struct {
	member string
	body   []byte
}

// wrap returns h timed as span name; member names the member server for
// captured bodies ("" for the front).
func (hs *handlers) wrap(name, member string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hs.inflight.Add(1)
		defer hs.inflight.Add(-1)
		t := hs.tr.Load()
		start := t.now()
		cw := &countingWriter{ResponseWriter: w, status: http.StatusOK}
		if member != "" && hs.capture.Load() {
			cw.tee = &bytes.Buffer{}
		}
		h.ServeHTTP(cw, r)
		if t != nil {
			t.add(span{name: name, path: r.URL.Path, op: t.op.Load(), start: start, end: t.now(), bytes: cw.bytes})
		}
		hs.mu.Lock()
		if member == "" {
			hs.frontCode, hs.frontBytes = cw.status, cw.bytes
		} else if cw.tee != nil && cw.status == http.StatusOK {
			hs.captured = append(hs.captured, capturedBody{member: member, body: cw.tee.Bytes()})
		}
		hs.mu.Unlock()
	})
}

// idle waits until no request is in flight, so work a client abandoned
// (a timed-out observation) does not run into the next operation.
func (hs *handlers) idle() {
	deadline := time.Now().Add(30 * time.Second)
	for hs.inflight.Load() > 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
}

// clearFront forgets the last front response.
func (hs *handlers) clearFront() {
	hs.mu.Lock()
	hs.frontCode, hs.frontBytes = 0, 0
	hs.mu.Unlock()
}

// lastFront returns the status and body size of the last front response.
func (hs *handlers) lastFront() (int, int64) {
	hs.mu.Lock()
	defer hs.mu.Unlock()
	return hs.frontCode, hs.frontBytes
}

// takeCaptured returns the bodies captured so far and stops capturing.
func (hs *handlers) takeCaptured() []capturedBody {
	hs.capture.Store(false)
	hs.mu.Lock()
	defer hs.mu.Unlock()
	out := hs.captured
	hs.captured = nil
	return out
}

type countingWriter struct {
	http.ResponseWriter
	status int
	wrote  bool
	bytes  int64
	tee    *bytes.Buffer
}

func (w *countingWriter) WriteHeader(code int) {
	if !w.wrote {
		w.status = code
		w.wrote = true
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *countingWriter) Write(p []byte) (int, error) {
	w.wrote = true
	n, err := w.ResponseWriter.Write(p)
	w.bytes += int64(n)
	if w.tee != nil {
		w.tee.Write(p[:n])
	}
	return n, err
}
