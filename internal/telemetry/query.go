package telemetry

import (
	"fmt"
	"sort"
	"time"
)

// Aggregate selects the window reduction a query computes per frame in
// addition to the point list.
type Aggregate uint8

const (
	// AggNone skips the reduction; the frame carries points only.
	AggNone Aggregate = iota
	// AggMean reduces to the sample-weighted mean over the window.
	AggMean
	// AggMin reduces to the minimum over the window.
	AggMin
	// AggMax reduces to the maximum over the window.
	AggMax
	// AggLast reduces to the newest value in the window.
	AggLast
)

func (a Aggregate) String() string {
	switch a {
	case AggNone:
		return "none"
	case AggMean:
		return "mean"
	case AggMin:
		return "min"
	case AggMax:
		return "max"
	case AggLast:
		return "last"
	default:
		return fmt.Sprintf("Aggregate(%d)", uint8(a))
	}
}

// ParseAggregate is the inverse of String, for query parameters. The empty
// string selects AggNone.
func ParseAggregate(s string) (Aggregate, error) {
	switch s {
	case "", "none":
		return AggNone, nil
	case "mean":
		return AggMean, nil
	case "min":
		return AggMin, nil
	case "max":
		return AggMax, nil
	case "last":
		return AggLast, nil
	default:
		return AggNone, fmt.Errorf("telemetry: unknown aggregate %q (none|mean|min|max|last)", s)
	}
}

// Query selects series and a time window.
//
// Node, Backend, and Domain match exactly; an empty field matches every
// series. The window is half-open [From, To); To <= 0 means unbounded.
// At Raw resolution the frame carries one point per sample still in the
// ring; at a rollup resolution it carries one point per bucket that
// overlaps the window.
type Query struct {
	Node       string
	Backend    string
	Domain     string
	From       time.Duration
	To         time.Duration
	Resolution Resolution
	Aggregate  Aggregate
}

func (q Query) matches(k SeriesKey) bool {
	return (q.Node == "" || q.Node == k.Node) &&
		(q.Backend == "" || q.Backend == k.Backend) &&
		(q.Domain == "" || q.Domain == k.Domain)
}

// FramePoint is one resolved point: a raw sample (Count 1, all four
// statistics equal to the value) or one rollup bucket.
type FramePoint struct {
	T     time.Duration // sample time, or bucket start
	Min   float64
	Max   float64
	Mean  float64
	Last  float64
	Count int
}

// Frame is the query result for one matching series.
type Frame struct {
	Key        SeriesKey
	Unit       string
	Resolution Resolution
	Points     []FramePoint
	// Gaps are the failed-poll instants inside the window still held in the
	// gap ring: explicit "the mechanism did not answer here" markers, so a
	// consumer never mistakes missing data for zero power. Served at every
	// resolution.
	Gaps []time.Duration
	// Reduced is the window reduction selected by Query.Aggregate;
	// ReducedOK reports whether it is valid (a non-AggNone aggregate over
	// a non-empty window).
	Reduced   float64
	ReducedOK bool
}

// Query runs q and returns one frame per matching series, sorted by key.
// Frames are deep copies: the caller may hold them while ingest continues.
// Results are a pure function of each series' ingest stream —
// byte-identical at any shard count. A persistent store serves the full
// history: each frame stitches sealed block data and the in-memory tail
// together along the series' persisted watermark (block data first, then
// ring entries past the watermark), so a restart changes nothing a reader
// can observe.
func (st *Store) Query(q Query) []Frame {
	if st.obs == nil {
		return st.runQuery(q)
	}
	start := time.Now()
	out := st.runQuery(q)
	st.observeQuery(q, len(out), time.Since(start))
	return out
}

func (st *Store) runQuery(q Query) []Frame {
	var out []Frame
	for i := range st.shards {
		sh := &st.shards[i]
		sh.mu.RLock()
		for _, s := range sh.series {
			if !q.matches(s.key) {
				continue
			}
			out = append(out, st.buildFrame(s, q))
		}
		sh.mu.RUnlock()
	}
	sort.Slice(out, func(i, j int) bool { return lessKey(out[i].Key, out[j].Key) })
	return out
}

// buildFrame resolves one series against the query window. Called with the
// owning shard's read lock held; block reads nest the block store's read
// lock inside it (the engine's fixed lock order). Block read failures are
// counted in StorageStats and degrade the frame to what memory holds —
// queries never fail outright.
func (st *Store) buildFrame(s *series, q Query) Frame {
	f := Frame{Key: s.key, Unit: s.unit, Resolution: q.Resolution}
	// red accumulates the window reduction across points.
	var red Bucket
	add := func(p FramePoint, sum float64) {
		f.Points = append(f.Points, p)
		if red.Count == 0 {
			red = Bucket{Count: p.Count, Min: p.Min, Max: p.Max, Sum: sum, Last: p.Last}
			return
		}
		if p.Min < red.Min {
			red.Min = p.Min
		}
		if p.Max > red.Max {
			red.Max = p.Max
		}
		red.Sum += sum
		red.Last = p.Last
		red.Count += p.Count
	}
	if q.Resolution == Raw {
		if st.blocks != nil && s.raw.persisted > 0 {
			err := st.blocks.EachPoint(s.key, q.From, q.To, func(p Point) {
				add(FramePoint{T: p.T, Min: p.V, Max: p.V, Mean: p.V, Last: p.V, Count: 1}, p.V)
			})
			if err != nil {
				st.readErrs.Add(1)
			}
		}
		for i := s.raw.served(); i < s.raw.ring.len(); i++ {
			p := s.raw.ring.at(i)
			if p.T < q.From || (q.To > 0 && p.T >= q.To) {
				continue
			}
			add(FramePoint{T: p.T, Min: p.V, Max: p.V, Mean: p.V, Last: p.V, Count: 1}, p.V)
		}
	} else {
		period := q.Resolution.Period()
		lvl := int(q.Resolution - 1)
		lv := &s.roll[lvl]
		if st.blocks != nil && lv.persisted > 0 {
			err := st.blocks.EachClosedBucket(s.key, lvl, period, q.From, q.To, func(b Bucket) {
				add(FramePoint{T: b.Start, Min: b.Min, Max: b.Max, Mean: b.Mean(), Last: b.Last, Count: b.Count}, b.Sum)
			})
			if err != nil {
				st.readErrs.Add(1)
			}
		}
		for i := lv.served(); i < lv.ring.len(); i++ {
			b := lv.ring.at(i)
			// include buckets overlapping the window
			if b.Start+period <= q.From || (q.To > 0 && b.Start >= q.To) {
				continue
			}
			add(FramePoint{T: b.Start, Min: b.Min, Max: b.Max, Mean: b.Mean(), Last: b.Last, Count: b.Count}, b.Sum)
		}
	}
	if st.blocks != nil && s.gaps.persisted > 0 {
		err := st.blocks.EachGap(s.key, q.From, q.To, func(t time.Duration) {
			f.Gaps = append(f.Gaps, t)
		})
		if err != nil {
			st.readErrs.Add(1)
		}
	}
	for i := s.gaps.served(); i < s.gaps.ring.len(); i++ {
		t := s.gaps.ring.at(i)
		if t < q.From || (q.To > 0 && t >= q.To) {
			continue
		}
		f.Gaps = append(f.Gaps, t)
	}
	if q.Aggregate != AggNone && red.Count > 0 {
		f.ReducedOK = true
		switch q.Aggregate {
		case AggMean:
			f.Reduced = red.Mean()
		case AggMin:
			f.Reduced = red.Min
		case AggMax:
			f.Reduced = red.Max
		case AggLast:
			f.Reduced = red.Last
		}
	}
	return f
}

// NodePower is one entry of a TopK ranking: a node and its mean power over
// the queried window, summed across that node's matching series.
type NodePower struct {
	Node   string
	Watts  float64
	Series int // matching series that contributed
}

// TopK ranks nodes by mean power over [from, to) at the given resolution
// and returns the top k (k <= 0 returns every node) plus the cluster-wide
// total — the "which jobs are burning the machine" and "what is the room
// drawing" questions an operator service answers. domain selects which
// measurement domain counts as power; the empty string defaults to
// "Total Power". A node's watts are the sum over its matching backends.
// Ordering is deterministic: watts descending, node name ascending on ties.
func (st *Store) TopK(k int, domain string, from, to time.Duration, res Resolution) (ranked []NodePower, total float64) {
	if domain == "" {
		domain = "Total Power"
	}
	frames := st.Query(Query{Domain: domain, From: from, To: to, Resolution: res, Aggregate: AggMean})
	// Frames arrive sorted by key, so same-node frames are adjacent and
	// the fold is deterministic.
	for _, f := range frames {
		if !f.ReducedOK {
			continue
		}
		if n := len(ranked); n > 0 && ranked[n-1].Node == f.Key.Node {
			ranked[n-1].Watts += f.Reduced
			ranked[n-1].Series++
		} else {
			ranked = append(ranked, NodePower{Node: f.Key.Node, Watts: f.Reduced, Series: 1})
		}
	}
	for _, np := range ranked {
		total += np.Watts
	}
	sort.SliceStable(ranked, func(i, j int) bool {
		if ranked[i].Watts != ranked[j].Watts {
			return ranked[i].Watts > ranked[j].Watts
		}
		return ranked[i].Node < ranked[j].Node
	})
	if k > 0 && len(ranked) > k {
		ranked = ranked[:k]
	}
	return ranked, total
}

// TotalPower reports the cluster-wide mean power over the window: the sum
// of every node's mean across matching series (see TopK for domain
// semantics), plus the number of nodes contributing.
func (st *Store) TotalPower(domain string, from, to time.Duration, res Resolution) (watts float64, nodes int) {
	ranked, total := st.TopK(0, domain, from, to, res)
	return total, len(ranked)
}
