package main

// The per-layer metrics of a traced run. Every workload reports the full
// list; a layer a workload never calls reads 0.

// mechanisms are the collection mechanisms the two simulated fleets poll.
var mechanisms = []string{"rapl.msr", "xeon_phi.sysmgmt_api", "xeon_phi.micras_daemon", "nvml.nvml"}

// servingClasses are the request classes of the serving path; a
// capping-loop step counts as an observe.
var servingClasses = []string{"topk", "bulk", "observe"}

// selfLayers are the layers self time is reported for. The federator runs
// inside the envfedd front, so its fan-out and merge count as envfedd self
// time; member scans count as httpapi self time.
var selfLayers = []string{"bench", "cluster", "moneq", "telemetry", "client", "httpapi", "envfedd", "powercap"}

// mainCall is the span of the client call that carries each class's
// main request, and mainPath its path.
var (
	mainCall = map[string]string{"topk": "client.topk", "bulk": "client.query", "observe": "powercap.observe"}
	mainPath = map[string]string{"topk": "/topk", "bulk": "/query", "observe": "/query"}
)

// servingClass maps an op class to its serving-path class.
func servingClass(c string) string {
	if c == "step" {
		return "observe"
	}
	return c
}

// spanSel collects the durations and bytes of matching spans across
// every traced repetition.
type spanSel struct {
	durs  []float64 // ns
	bytes []float64
}

func (b *bench) spans(match func(t *tracer, s span) bool) spanSel {
	var out spanSel
	for _, t := range b.tracers {
		for _, s := range t.spans {
			if match(t, s) {
				out.durs = append(out.durs, float64(s.dur()))
				out.bytes = append(out.bytes, float64(s.bytes))
			}
		}
	}
	return out
}

func byName(name string) func(*tracer, span) bool {
	return func(_ *tracer, s span) bool { return s.name == name }
}

func inClass(name, class string) func(*tracer, span) bool {
	return func(t *tracer, s span) bool {
		return s.name == name && servingClass(t.classes[s.op]) == class
	}
}

func (b *bench) perLayer(spanNS float64, e2e [2]map[string]metric) map[string]metric {
	out := map[string]metric{}
	put := func(name, unit string, v float64) {
		out[name] = metric{value: finite(v), unit: unit}
	}
	meanMS := func(m func(*tracer, span) bool) float64 { return mean(b.spans(m).durs) / 1e6 }
	meanUS := func(m func(*tracer, span) bool) float64 { return mean(b.spans(m).durs) / 1e3 }

	put("cluster.advance_ms", "ms", meanMS(byName("cluster.advance")))
	put("cluster.epochs", "count", b.counts["cluster.epochs"])
	for _, m := range mechanisms {
		var calls, ns int64
		for _, t := range b.tracers {
			if st, ok := t.mechs[m]; ok {
				calls += st.calls.Load()
				ns += st.ns.Load()
			}
		}
		put("moneq.collect_us."+m, "us", float64(ns)/float64(max(calls, 1))/1e3)
		put("moneq.collect_calls."+m, "count", b.counts["moneq.collect_calls."+m])
	}

	flush := b.spans(byName("telemetry.flush"))
	put("telemetry.flush_ms", "ms", mean(flush.durs)/1e6)
	put("telemetry.ingest_ns_per_sample", "ns", sum(flush.durs)/float64(max(b.flushedTraced, 1)))
	put("telemetry.samples", "count", b.counts["telemetry.samples"])
	put("telemetry.gaps", "count", b.counts["telemetry.gaps"])
	put("telemetry.compactions", "count", b.counts["telemetry.compactions"])
	put("telemetry.block_bytes_per_sample", "B", b.counts["telemetry.block_bytes"]/max(b.counts["telemetry.samples"], 1))
	put("telemetry.query_ms.history", "ms", meanMS(inClass("telemetry.query", "history")))
	put("telemetry.query_ms.bulk", "ms", meanMS(inClass("telemetry.query", "bulk")))
	put("telemetry.query_ms.observe", "ms", meanMS(inClass("telemetry.query", "observe")))
	put("telemetry.topk_ms", "ms", meanMS(byName("telemetry.topk")))

	for _, c := range servingClasses {
		c := c
		member := func(t *tracer, s span) bool {
			return s.name == "httpapi.serve" && s.path == mainPath[c] && servingClass(t.classes[s.op]) == c
		}
		served := b.spans(member)
		put("httpapi.serve_ms."+c, "ms", mean(served.durs)/1e6)
		put("httpapi.bytes."+c, "B", mean(served.bytes))
		put("httpapi.serve_max_ms."+c, "ms", b.slowestMember(member)/1e6)
		put("federation.fanout_ms."+c, "ms", meanMS(inClass("federation.fanout", c)))
		put("federation.merge_ms."+c, "ms", meanMS(inClass("federation.merge", c)))
		put("envfedd.front_ms."+c, "ms", b.frontTime(c)/1e6)
		put("envfedd.bytes."+c, "B", mean(b.spans(func(t *tracer, s span) bool {
			return s.name == "envfedd.serve" && s.path == mainPath[c] && servingClass(t.classes[s.op]) == c
		}).bytes))
	}

	put("powercap.observe_ms", "ms", meanMS(byName("powercap.observe")))
	put("powercap.step_us", "us", meanUS(byName("powercap.step")))
	put("powercap.actuate_us", "us", meanUS(byName("powercap.actuate")))
	put("powercap.gate_us", "us", meanUS(byName("powercap.gate")))
	put("powercap.stale_steps", "count", b.counts["powercap.stale_steps"])
	put("powercap.admitted", "count", b.counts["powercap.admitted"])
	put("powercap.decisions", "count", b.counts["powercap.decisions"])

	// Self time per operation, over the spans on each operation's path.
	self := map[string]int64{}
	var ops, spans int
	for _, t := range b.tracers {
		for l, ns := range t.selfTimes() {
			self[l] += ns
		}
		for _, s := range t.spans {
			if spanRank(s.name) == 0 {
				ops++
			}
		}
		spans += len(t.spans)
	}
	for _, l := range selfLayers {
		put("self_ms."+l, "ms", float64(self[l])/float64(max(ops, 1))/1e6)
	}
	put("trace.span_ns", "ns", spanNS)
	put("trace.spans_per_op", "count", float64(spans)/float64(max(ops, 1)))
	for name, m := range e2e[0] {
		if t, ok := e2e[1][name]; ok && name != "setup_s" { // set-up is never traced
			put("trace_overhead."+name, m.unit, t.value-m.value)
		}
	}
	return out
}

// slowestMember is the mean, over fan-outs, of the slowest member
// request: the straggler sets the fan-out's time.
func (b *bench) slowestMember(match func(*tracer, span) bool) float64 {
	var maxes []float64
	for _, t := range b.tracers {
		slowest := map[int]int64{} // parent span -> slowest child
		for _, s := range t.spans {
			if match(t, s) && s.parent >= 0 {
				slowest[s.parent] = max(slowest[s.parent], s.dur())
			}
		}
		for _, d := range slowest {
			maxes = append(maxes, float64(d))
		}
	}
	return mean(maxes)
}

// frontTime is the mean, over operations of a class, of the main client
// call through the front minus the same fan-out called directly: front
// encode, transport and client decode.
func (b *bench) frontTime(class string) float64 {
	var diffs []float64
	for _, t := range b.tracers {
		call, fan := map[int64]int64{}, map[int64]int64{}
		for _, s := range t.spans {
			if servingClass(t.classes[s.op]) != class {
				continue
			}
			switch s.name {
			case mainCall[class]:
				call[s.op] = s.dur()
			case "federation.fanout":
				fan[s.op] = s.dur()
			}
		}
		for op, c := range call {
			if f, ok := fan[op]; ok {
				diffs = append(diffs, float64(c-f))
			}
		}
	}
	return mean(diffs)
}
