package httpapi

import (
	"context"
	"net/http"
	"time"

	"envmon/internal/telemetry"
)

// storeBackend is the Backend over a local telemetry.Store: envmond's.
type storeBackend struct {
	store *telemetry.Store
	now   func() time.Duration
}

// New returns a server over store, with envmon_http_* metrics and
// /series beside the data plane. now, when non-nil, reports the
// simulation's current time for /healthz (e.g. a clock group's Now); nil
// reports zero.
func New(store *telemetry.Store, now func() time.Duration) *Server {
	b := storeBackend{store: store, now: now}
	s := NewServer(b, "envmon")
	s.Handle("/series", func() (any, error) { return b.series() })
	return s
}

func (b storeBackend) simNow() int64 {
	if b.now == nil {
		return 0
	}
	return int64(b.now())
}

// guarded runs compute, a store scan that cannot be interrupted. With no
// deadline on ctx it runs inline. With one, the scan runs on its own
// goroutine and ctx's expiry returns ctx.Err() at once — the caller gets a
// JSON error within its budget, never a connection held open by a slow
// scan (the scan finishes and is discarded).
func guarded[T any](ctx context.Context, compute func() T) (T, error) {
	if _, ok := ctx.Deadline(); !ok {
		return compute(), nil
	}
	ch := make(chan T, 1)
	go func() { ch <- compute() }()
	select {
	case v := <-ch:
		return v, nil
	case <-ctx.Done():
		var zero T
		return zero, ctx.Err()
	}
}

// runGuarded writes compute's response, or a 504 JSON error once a
// positive deadline passes first.
func runGuarded(w http.ResponseWriter, deadline time.Duration, compute func() (int, any)) {
	ctx := context.Background()
	if deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, deadline)
		defer cancel()
	}
	type resp struct {
		status int
		doc    any
	}
	rp, err := guarded(ctx, func() resp {
		status, doc := compute()
		return resp{status, doc}
	})
	if err != nil {
		reply(w, nil, err, deadline)
		return
	}
	writeJSON(w, rp.status, rp.doc)
}

func (b storeBackend) Health(context.Context) Health {
	h := Health{
		Status:   "ok",
		Series:   b.store.NumSeries(),
		Samples:  b.store.Samples(),
		Gaps:     b.store.Gaps(),
		SimNowNS: b.simNow(),
	}
	if stats := b.store.StorageStats(); stats.Persistent {
		h.Storage = &StorageHealth{
			DataDir:          stats.DataDir,
			Blocks:           stats.Blocks,
			BlockBytes:       stats.BlockBytes,
			WALBytes:         stats.WALBytes,
			Compactions:      stats.Compactions,
			ReadErrors:       stats.ReadErrors,
			RecoveredSeries:  stats.Recovery.Series,
			RecoveredSamples: stats.Recovery.Samples,
			RecoveredGaps:    stats.Recovery.Gaps,
			LostRecords:      stats.Recovery.Lost,
		}
	}
	return h
}

func (b storeBackend) series() (SeriesResult, error) {
	if b.store.Closed() {
		return SeriesResult{}, errClosing
	}
	infos := b.store.Series()
	out := SeriesResult{Series: make([]SeriesInfo, 0, len(infos))}
	for _, si := range infos {
		out.Series = append(out.Series, SeriesInfo{
			Node: si.Key.Node, Backend: si.Key.Backend, Domain: si.Key.Domain,
			Unit: si.Unit, Samples: si.Samples, Gaps: si.Gaps, Persisted: si.Persisted,
			OldestNS: int64(si.Oldest), NewestNS: int64(si.Newest),
		})
	}
	return out, nil
}

func (b storeBackend) Query(ctx context.Context, q telemetry.Query) (QueryResult, error) {
	if b.store.Closed() {
		return QueryResult{}, errClosing
	}
	return guarded(ctx, func() QueryResult {
		frames := b.store.Query(q)
		out := QueryResult{Frames: make([]Frame, 0, len(frames)), SimNowNS: b.simNow()}
		for _, f := range frames {
			jf := frameDoc(f)
			if n := len(jf.Points); n > 0 && jf.Points[n-1].TNS > out.NewestNS {
				out.NewestNS = jf.Points[n-1].TNS
			}
			out.Frames = append(out.Frames, jf)
		}
		return out
	})
}

// frameDoc converts one store frame to its wire form.
func frameDoc(f telemetry.Frame) Frame {
	jf := Frame{
		Node: f.Key.Node, Backend: f.Key.Backend, Domain: f.Key.Domain,
		Unit: f.Unit, Resolution: f.Resolution.String(),
		Points: make([]Point, 0, len(f.Points)),
	}
	if f.ReducedOK {
		v := f.Reduced
		jf.Reduced = &v
	}
	for _, p := range f.Points {
		jf.Points = append(jf.Points, Point{
			TNS: int64(p.T), Min: p.Min, Max: p.Max, Mean: p.Mean, Last: p.Last, Count: p.Count,
		})
	}
	for _, g := range f.Gaps {
		jf.GapsNS = append(jf.GapsNS, int64(g))
	}
	return jf
}

func (b storeBackend) TopK(ctx context.Context, k int, domain string, from, to time.Duration, res telemetry.Resolution) (TopKResult, error) {
	if b.store.Closed() {
		return TopKResult{}, errClosing
	}
	return guarded(ctx, func() TopKResult {
		ranked, total := b.store.TopK(k, domain, from, to, res)
		out := TopKResult{Domain: domain, TotalWatts: total, SimNowNS: b.simNow(),
			Nodes: make([]NodePower, 0, len(ranked))}
		if out.Domain == "" {
			out.Domain = "Total Power"
		}
		for _, np := range ranked {
			out.Nodes = append(out.Nodes, NodePower{Node: np.Node, Watts: np.Watts, Series: np.Series})
		}
		return out
	})
}
