package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call the benchmark made into a layer. Spans of one
// operation share its op id; parent links are resolved after the run
// (see link), because handler spans are recorded on server goroutines
// that cannot see their caller.
type span struct {
	name   string // "<layer>.<call>", or "op.<class>" for an operation root
	path   string // request path of an HTTP handler span
	op     int64
	start  int64 // ns since the tracer's epoch
	end    int64
	bytes  int64 // response body bytes of an HTTP handler span
	parent int   // index of the parent span; -1 for a root
}

func (s span) dur() int64 { return s.end - s.start }

// layer is the module a span's call went into.
func (s span) layer() string {
	l, _, _ := strings.Cut(s.name, ".")
	if l == "op" {
		return "bench"
	}
	return l
}

// rank orders spans for parent resolution: a span's parent is the
// enclosing span of the same op with the highest rank below its own.
// Sibling calls that overlap in time (parallel member requests, parallel
// collector polls) share a rank, so they never become each other's
// parent.
var rank = map[string]int{
	"cluster.advance":   1,
	"moneq.collect":     2,
	"telemetry.flush":   1,
	"telemetry.query":   1,
	"telemetry.topk":    1,
	"client.healthz":    1,
	"client.topk":       1,
	"client.query":      1,
	"powercap.observe":  1,
	"powercap.step":     1,
	"powercap.actuate":  1,
	"powercap.gate":     1,
	"federation.fanout": 1,
	"federation.merge":  1,
	"envfedd.serve":     2,
	"httpapi.serve":     3,
}

func spanRank(name string) int {
	if strings.HasPrefix(name, "op.") {
		return 0
	}
	return rank[name]
}

// mechStat counts one collection mechanism's polls and their host time.
type mechStat struct {
	calls atomic.Int64
	ns    atomic.Int64
}

// tracer keeps the spans of one traced repetition in memory. A nil
// *tracer records nothing, so untraced code paths call it freely.
type tracer struct {
	epoch time.Time
	op    atomic.Int64 // id of the operation in flight

	mu      sync.Mutex
	spans   []span
	classes map[int64]string // op id -> class
	mechs   map[string]*mechStat
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), classes: map[int64]string{}, mechs: map[string]*mechStat{}}
}

// now returns the tracer clock; 0 on a nil tracer.
func (t *tracer) now() int64 {
	if t == nil {
		return 0
	}
	return int64(time.Since(t.epoch))
}

// beginOp starts a new operation of the given class.
func (t *tracer) beginOp(class string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	id := int64(len(t.classes) + 1)
	t.classes[id] = class
	t.mu.Unlock()
	t.op.Store(id)
}

// record closes a span that began at start under the current op.
func (t *tracer) record(name string, start int64) {
	if t == nil {
		return
	}
	t.add(span{name: name, op: t.op.Load(), start: start, end: t.now()})
}

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// mech returns the counters of one collection mechanism.
func (t *tracer) mech(name string) *mechStat {
	t.mu.Lock()
	defer t.mu.Unlock()
	m, ok := t.mechs[name]
	if !ok {
		m = &mechStat{}
		t.mechs[name] = m
	}
	return m
}

// link resolves every span's parent: the enclosing span of the same op,
// by start time, with the highest rank below the span's own. Start
// containment rather than full containment, because a handler may
// return a moment after its client has read the whole response.
func (t *tracer) link() {
	byOp := map[int64][]int{}
	for i := range t.spans {
		t.spans[i].parent = -1
		byOp[t.spans[i].op] = append(byOp[t.spans[i].op], i)
	}
	for _, idx := range byOp {
		var inner []int // candidate parents: every span that is not a leaf rank
		for _, i := range idx {
			if spanRank(t.spans[i].name) < 3 {
				inner = append(inner, i)
			}
		}
		for _, i := range idx {
			s := &t.spans[i]
			r := spanRank(s.name)
			best, bestRank := -1, -1
			for _, j := range inner {
				c := &t.spans[j]
				cr := spanRank(c.name)
				if j == i || cr >= r || s.start < c.start || s.start > c.end {
					continue
				}
				if cr > bestRank || (cr == bestRank && c.start > t.spans[best].start) {
					best, bestRank = j, cr
				}
			}
			s.parent = best
		}
	}
}

// selfTimes returns each layer's self time in ns: every span's duration
// minus the part of its interval its children cover. Children that ran
// in parallel are merged first, so overlap is not subtracted twice.
func (t *tracer) selfTimes() map[string]int64 {
	children := make([][]int, len(t.spans))
	for i, s := range t.spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], i)
		}
	}
	// Only spans on an operation's own path count: the probes a traced
	// repetition runs after an operation are outside every op span.
	onPath := make([]int8, len(t.spans)) // 0 unknown, 1 yes, -1 no
	var resolve func(i int) bool
	resolve = func(i int) bool {
		if onPath[i] == 0 {
			s := t.spans[i]
			ok := strings.HasPrefix(s.name, "op.")
			if !ok && s.parent >= 0 {
				ok = resolve(s.parent)
			}
			onPath[i] = -1
			if ok {
				onPath[i] = 1
			}
		}
		return onPath[i] == 1
	}
	out := map[string]int64{}
	for i, s := range t.spans {
		if !resolve(i) {
			continue
		}
		type iv struct{ a, b int64 }
		ivs := make([]iv, 0, len(children[i]))
		for _, c := range children[i] {
			a, b := max(t.spans[c].start, s.start), min(t.spans[c].end, s.end)
			if b > a {
				ivs = append(ivs, iv{a, b})
			}
		}
		sort.Slice(ivs, func(x, y int) bool { return ivs[x].a < ivs[y].a })
		var covered, curA, curB int64
		for k, v := range ivs {
			if k == 0 || v.a > curB {
				covered += curB - curA
				curA, curB = v.a, v.b
			} else if v.b > curB {
				curB = v.b
			}
		}
		covered += curB - curA
		out[s.layer()] += s.dur() - covered
	}
	return out
}

// writeSpans appends the spans of every traced repetition to path as
// tab-separated rows: rep, op, class, span index, parent, name, path,
// start ns, end ns, bytes.
func writeSpans(path string, reps []*tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "rep\top\tclass\tspan\tparent\tname\tpath\tstart_ns\tend_ns\tbytes")
	for r, t := range reps {
		for i, s := range t.spans {
			fmt.Fprintf(w, "%d\t%d\t%s\t%d\t%d\t%s\t%s\t%d\t%d\t%d\n",
				r, s.op, t.classes[s.op], i, s.parent, s.name, s.path, s.start, s.end, s.bytes)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// spanCost measures what recording one span costs, so the per-layer
// report can state the tracing overhead each layer's span count implies.
func spanCost() float64 {
	const n = 200_000
	t := newTracer()
	start := time.Now()
	for i := 0; i < n; i++ {
		t.record("moneq.collect", t.now())
	}
	return float64(time.Since(start).Nanoseconds()) / n
}
