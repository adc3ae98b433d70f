// Command envbench is envmon's benchmark. It runs one workload against
// envmon's package APIs for a fixed wall time, checks the outputs, and
// prints its metrics; the last line of standard output is one JSON
// object with the keys correct, attempted, failed and metrics.
//
//	envbench --workload stampede-ingest|fed-query|capping-loop|fed-observe \
//	         --seed N --seconds S --trace 0|1
//
// --trace 0 measures the end-to-end metrics with tracing off. --trace 1
// alternates untraced and traced repetitions and reports the per-layer
// metrics from spans the benchmark records around its own calls into
// each layer, plus the tracing overhead on every end-to-end metric.
// README.md records why each workload exists and what each metric means.
// run.sh builds this package from the checkout and runs it.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(*bench) error{
	"stampede-ingest": runStampede,
	"fed-query":       runFedQuery,
	"capping-loop":    runCapping,
	"fed-observe":     runFedObserve, // defect 1 of README.md; not in BENCHMARK.json
}

// scratch is where runs keep their files, inside the checkout.
const scratch = ".bench_build/envbench"

// bench is one benchmark run.
type bench struct {
	workload string
	seed     uint64
	seconds  time.Duration
	trace    bool
	workers  int // simulator worker pool, at most GOMAXPROCS
	dir      string

	sides   [2]side // [0] untraced, [1] traced repetitions
	classes []*class
	checks  []check
	counts  map[string]float64 // exact per-repetition counts, from the first repetition that set them
	expects map[string]string  // values expect has already compared in this run
	tracers []*tracer          // one per traced repetition

	flushedTraced uint64               // samples the traced repetitions' barrier flushes ingested
	named         []named              // the workload's own figures, for the report
	latencies     map[string][]float64 // untraced latency samples in ms per class, kept for pooling across runs

	// setup builds the workload's system and returns its teardown. reps
	// times setupEach set-ups before every repetition and after the last,
	// so setup_s samples the whole run rather than one moment of it.
	setup     func() (teardown func(), err error)
	setupEach int
	minReps   int // repetitions a run makes however long they take
}

// side accumulates one tracing mode's end-to-end measurements.
type side struct {
	setups []float64 // seconds per set-up; untraced side only
	lat    []float64 // ms per headline operation
	ops    int       // operations counted in ops_per_s
	busy   time.Duration
	reps   int
	heaps  []float64 // MB live after a full GC at the end of each repetition
	rates  []float64 // ops_per_s of each repetition

	markOps  int // ops and busy when the current repetition began
	markBusy time.Duration
}

// endRep closes the repetition t traced (nil: an untraced one): it
// collects garbage and records the heap the system still holds. Two
// collections, because buffers parked in a sync.Pool survive the first.
// Spans stay in memory until exit, so the heap is recorded only while no
// earlier traced repetition's spans are held: in a traced run, that is
// the first repetition of each kind, and the traced minus the untraced
// heap is the cost of one repetition's spans.
func (b *bench) endRep(t *tracer) {
	s := b.side(t)
	if len(b.tracers)-btoi(t != nil) == 0 {
		var m runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&m)
		s.heaps = append(s.heaps, float64(m.HeapAlloc)/(1<<20))
	}
	s.rates = append(s.rates, float64(s.ops-s.markOps)/(s.busy-s.markBusy).Seconds())
	s.markOps, s.markBusy = s.ops, s.busy
	s.reps++
}

type class struct {
	name              string
	attempted, failed int
	firstErr          string
}

type check struct {
	name   string
	ok     bool
	detail string
}

// named is one of a workload's own figures (bulk_p50_ms, decide_p90_ms,
// stale_share, ...), reported by name beside the generic end-to-end
// metrics every workload shares, and never a copy of one of them.
type named struct {
	name, unit string
	value      float64
	n          int
}

func main() {
	workload := flag.String("workload", "", "workload to run: stampede-ingest, fed-query, capping-loop or fed-observe")
	seed := flag.Uint64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 10, "wall seconds to measure")
	traceFlag := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run")
	flag.Parse()
	run, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "envbench: need --workload stampede-ingest|fed-query|capping-loop|fed-observe, --seconds > 0, --trace 0|1")
		os.Exit(2)
	}
	b := &bench{
		workload:  *workload,
		seed:      *seed,
		seconds:   time.Duration(*seconds * float64(time.Second)),
		trace:     *traceFlag == 1,
		workers:   runtime.GOMAXPROCS(0),
		counts:    map[string]float64{},
		expects:   map[string]string{},
		latencies: map[string][]float64{},
	}
	if err := b.main(run); err != nil {
		fmt.Fprintln(os.Stderr, "envbench:", err)
		os.Exit(1)
	}
}

func (b *bench) main(run func(*bench) error) error {
	b.dir = filepath.Join(scratch, fmt.Sprintf("%s-seed%d-trace%d", b.workload, b.seed, btoi(b.trace)))
	if err := os.RemoveAll(b.dir); err != nil {
		return err
	}
	if err := os.MkdirAll(b.dir, 0o755); err != nil {
		return err
	}
	var spanNS float64
	if b.trace {
		spanNS = spanCost()
	}
	began := time.Now()
	if err := run(b); err != nil {
		return err
	}
	wall := time.Since(began)
	if err := os.RemoveAll(filepath.Join(b.dir, "tmp")); err != nil {
		return err
	}

	e2e := [2]map[string]metric{b.endToEnd(0), b.endToEnd(1)}
	var layers map[string]metric
	if b.trace {
		for _, t := range b.tracers {
			t.link()
		}
		layers = b.perLayer(spanNS, e2e)
		if err := writeSpans(filepath.Join(b.dir, "spans.tsv"), b.tracers); err != nil {
			return err
		}
	}
	prov := b.provenance(wall)
	b.report(prov, e2e, layers)

	out := struct {
		Correct   bool                      `json:"correct"`
		Attempted int                       `json:"attempted"`
		Failed    int                       `json:"failed"`
		Metrics   map[string]map[string]any `json:"metrics"`
	}{Correct: true, Metrics: map[string]map[string]any{}}
	for _, c := range b.checks {
		out.Correct = out.Correct && c.ok
	}
	for _, c := range b.classes {
		out.Attempted += c.attempted
		out.Failed += c.failed
	}
	chosen := e2e[0]
	if b.trace {
		chosen = layers
	}
	for name, m := range chosen {
		out.Metrics[name] = map[string]any{"value": m.value, "unit": m.unit}
	}
	type classDoc struct {
		Name      string `json:"name"`
		Attempted int    `json:"attempted"`
		Failed    int    `json:"failed"`
		FirstErr  string `json:"first_error,omitempty"`
	}
	type checkDoc struct {
		Name   string `json:"name"`
		OK     bool   `json:"ok"`
		Detail string `json:"detail"`
	}
	var classes []classDoc
	for _, c := range b.classes {
		classes = append(classes, classDoc{c.name, c.attempted, c.failed, c.firstErr})
	}
	var checks []checkDoc
	for _, c := range b.checks {
		checks = append(checks, checkDoc{c.name, c.ok, c.detail})
	}
	type namedDoc struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
		N     int     `json:"n"`
	}
	own := map[string]namedDoc{}
	for _, n := range b.named {
		own[n.name] = namedDoc{n.value, n.unit, n.n}
	}
	full := map[string]any{
		"provenance": prov, "correct": out.Correct, "attempted": out.Attempted, "failed": out.Failed,
		"classes": classes, "checks": checks, "workload_metrics": own, "latency_samples_ms": b.latencies,
		"end_to_end": e2e[0], "per_layer": layers,
	}
	if b.trace {
		full["end_to_end_traced"] = e2e[1]
	}
	if err := writeJSON(filepath.Join(b.dir, "result.json"), full); err != nil {
		return err
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// reps runs rep until the run has measured for the requested time and
// made at least minReps repetitions. A traced run alternates untraced and
// traced repetitions, untraced first, and runs each at least once.
func (b *bench) reps(rep func(i int, t *tracer) error) error {
	start := time.Now()
	for i := 0; ; i++ {
		if err := b.timeSetups(); err != nil {
			return err
		}
		var t *tracer
		if b.trace && i%2 == 1 {
			t = newTracer()
			b.tracers = append(b.tracers, t)
		}
		if err := rep(i, t); err != nil {
			return err
		}
		if time.Since(start) >= b.seconds && i+1 >= b.minReps && (!b.trace || i >= 1) {
			return b.timeSetups()
		}
	}
}

func (b *bench) side(t *tracer) *side {
	if t != nil {
		return &b.sides[1]
	}
	return &b.sides[0]
}

// class returns the failure accounting of one operation class.
func (b *bench) class(name string) *class {
	for _, c := range b.classes {
		if c.name == name {
			return c
		}
	}
	c := &class{name: name}
	b.classes = append(b.classes, c)
	return c
}

// op counts one attempted operation of a class; a non-nil err fails it.
func (b *bench) op(name string, err error) {
	c := b.class(name)
	c.attempted++
	if err != nil {
		c.failed++
		if c.firstErr == "" {
			c.firstErr = err.Error()
		}
	}
}

// check records an output check; repeating a name folds the result into
// the first, keeping the first failure's detail.
func (b *bench) check(name string, ok bool, detail string) {
	for i := range b.checks {
		c := &b.checks[i]
		if c.name == name {
			if c.ok && !ok {
				c.ok, c.detail = false, detail
			}
			return
		}
	}
	b.checks = append(b.checks, check{name: name, ok: ok, detail: detail})
}

// count records an exact per-repetition count; a later repetition must
// reproduce it.
func (b *bench) count(name string, v float64) {
	if old, ok := b.counts[name]; ok {
		if old != v {
			b.check("repeatable "+name, false, fmt.Sprintf("%v then %v", old, v))
		}
		return
	}
	b.counts[name] = v
}

// expect checks value against what an earlier run with the same seed in
// this checkout recorded under key, and records it if none did.
func (b *bench) expect(key, value string) {
	if old, ok := b.expects[key]; ok {
		if old != value {
			b.check("repeatable "+key, false, fmt.Sprintf("%s then %s", old, value))
		}
		return
	}
	b.expects[key] = value
	dir := filepath.Join(scratch, "expect")
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d-%s", b.workload, b.seed, key))
	old, err := os.ReadFile(path)
	switch {
	case err == nil:
		b.check(key+" matches earlier runs", string(old) == value,
			fmt.Sprintf("earlier %s, now %s", old, value))
	case errors.Is(err, fs.ErrNotExist):
		if err := os.MkdirAll(dir, 0o755); err == nil {
			_ = os.WriteFile(path, []byte(value), 0o644) // a lost record only skips a later comparison
		}
		b.check(key+" recorded", true, value)
	default:
		b.check(key+" readable", false, err.Error())
	}
}

func (b *bench) addNamed(name, unit string, value float64, n int) {
	b.named = append(b.named, named{name: name, unit: unit, value: finite(value), n: n})
}

// minTail is the smallest sample a p90 is reported from: at least two
// samples then lie beyond it.
const minTail = 20

// addTail reports <class>_p90_ms from a class's latency sample where the
// sample is large enough to have one, and keeps the sample in result.json
// so that runs can be pooled where it is not.
func (b *bench) addTail(class string, lat []float64) {
	b.latencies[class] = lat
	if len(lat) >= minTail {
		b.addNamed(class+"_p90_ms", "ms", percentile(lat, 0.9), len(lat))
	}
}

// timeSetups times setupEach fresh set-ups, each torn down at once;
// setup_s is their median over the run.
func (b *bench) timeSetups() error {
	for range b.setupEach {
		start := time.Now()
		teardown, err := b.setup()
		if err != nil {
			return err
		}
		b.sides[0].setups = append(b.sides[0].setups, time.Since(start).Seconds())
		teardown()
	}
	runtime.GC() // the torn-down systems' garbage is not the next repetition's
	return nil
}

// tmpDir returns a fresh directory for one repetition's files.
func (b *bench) tmpDir(prefix string) (string, error) {
	root := filepath.Join(b.dir, "tmp")
	if err := os.MkdirAll(root, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(root, prefix)
}

// metric is one reported value with the sample it summarizes.
type metric struct {
	value float64
	unit  string
	sum   summary
}

func (m metric) MarshalJSON() ([]byte, error) {
	return json.Marshal(struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
		summary
	}{m.value, m.unit, m.sum})
}

// endToEnd computes the metrics every workload reports from one side.
func (b *bench) endToEnd(i int) map[string]metric {
	s := &b.sides[i]
	if s.reps == 0 {
		return nil
	}
	lat := summarize(s.lat)
	setups := b.sides[0].setups // set-up is timed untraced, between repetitions
	return map[string]metric{
		"setup_s":   {value: summarize(setups).Median, unit: "s", sum: summarize(setups)},
		"ops_per_s": {value: float64(s.ops) / s.busy.Seconds(), unit: "1/s", sum: summarize(s.rates)},
		"op_p50_ms": {value: finite(percentile(s.lat, 0.5)), unit: "ms", sum: lat},
		"heap_mb":   {value: summarize(s.heaps).Median, unit: "MB", sum: summarize(s.heaps)},
	}
}

// maxRSS is the process's peak resident set so far, in MB.
func maxRSS() float64 {
	var rusage syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &rusage) // cannot fail for RUSAGE_SELF
	return float64(rusage.Maxrss) / 1024                // Linux reports KiB
}

type provenance struct {
	Workload        string  `json:"workload"`
	Seed            uint64  `json:"seed"`
	Trace           int     `json:"trace"`
	Commit          string  `json:"commit"`
	SourceSHA256    string  `json:"source_sha256"`
	GoVersion       string  `json:"go_version"`
	NumCPU          int     `json:"num_cpu"`
	GOMAXPROCS      int     `json:"gomaxprocs"`
	RunSeconds      float64 `json:"run_seconds"`
	WallSeconds     float64 `json:"wall_seconds"`
	Repetitions     int     `json:"repetitions"`
	TracedReps      int     `json:"traced_repetitions"`
	Operations      int     `json:"operations"`
	TracedOps       int     `json:"traced_operations"`
	SimulatorWorker int     `json:"simulator_workers"`
}

func (b *bench) provenance(wall time.Duration) provenance {
	return provenance{
		Workload: b.workload, Seed: b.seed, Trace: btoi(b.trace),
		Commit: gitCommit(), SourceSHA256: sourceDigest(),
		GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		RunSeconds: b.seconds.Seconds(), WallSeconds: wall.Seconds(),
		Repetitions: b.sides[0].reps, TracedReps: b.sides[1].reps,
		Operations: b.sides[0].ops, TracedOps: b.sides[1].ops,
		SimulatorWorker: b.workers,
	}
}

// report prints the human-readable part of the output.
func (b *bench) report(p provenance, e2e [2]map[string]metric, layers map[string]metric) {
	fmt.Printf("envbench %s seed=%d trace=%d commit=%s source=%s\n", p.Workload, p.Seed, p.Trace, p.Commit, p.SourceSHA256[:12])
	fmt.Printf("  %s, NumCPU=%d, GOMAXPROCS=%d, run %.0fs (wall %.1fs), %d reps / %d ops untraced, %d reps / %d ops traced\n",
		p.GoVersion, p.NumCPU, p.GOMAXPROCS, p.RunSeconds, p.WallSeconds, p.Repetitions, p.Operations, p.TracedReps, p.TracedOps)
	for _, c := range b.checks {
		mark := "ok  "
		if !c.ok {
			mark = "FAIL"
		}
		fmt.Printf("  check %s %s: %s\n", mark, c.name, c.detail)
	}
	for _, c := range b.classes {
		share := 0.0
		if c.attempted > 0 {
			share = float64(c.failed) / float64(c.attempted)
		}
		fmt.Printf("  class %-8s attempted %5d  failed %5d  fail_share %.4f", c.name, c.attempted, c.failed, share)
		if c.firstErr != "" {
			fmt.Printf("  first error: %s", c.firstErr)
		}
		fmt.Println()
	}
	for _, n := range b.named {
		fmt.Printf("  %-22s %14.4f %-6s (n=%d)\n", n.name, n.value, n.unit, n.n)
	}
	for _, c := range sortedKeys(b.latencies) {
		if n := len(b.latencies[c]); n < minTail {
			fmt.Printf("  %-22s omitted: n=%d < %d; pool latency_samples_ms.%s of result.json over runs\n", c+"_p90_ms", n, minTail, c)
		}
	}
	for _, name := range sortedKeys(e2e[0]) {
		m := e2e[0][name]
		fmt.Printf("  e2e %-18s %14.4f %-4s n=%d median=%.4f q1=%.4f q3=%.4f", name, m.value, m.unit, m.sum.N, m.sum.Median, m.sum.Q1, m.sum.Q3)
		if t, ok := e2e[1][name]; ok {
			fmt.Printf("  traced %.4f overhead %+.4f", t.value, t.value-m.value)
		}
		fmt.Println()
	}
	for _, name := range sortedKeys(layers) {
		m := layers[name]
		fmt.Printf("  layer %-40s %14.4f %s\n", name, m.value, m.unit)
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func writeJSON(path string, doc any) error {
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// gitCommit reads the checked-out commit from .git without running git;
// a checkout that is not a repository reports "unknown".
func gitCommit() string {
	head, err := os.ReadFile(".git/HEAD")
	if err != nil {
		return "unknown"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if id, err := os.ReadFile(filepath.Join(".git", ref)); err == nil {
		return strings.TrimSpace(string(id))
	}
	packed, err := os.ReadFile(".git/packed-refs")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if id, name, ok := strings.Cut(line, " "); ok && name == ref {
			return id
		}
	}
	return "unknown"
}

// sourceDigest hashes every file of the checkout outside .git and the
// build directory, so a result names the source it measured even where
// no commit id is available.
func sourceDigest() string {
	h := sha256.New()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && (path == ".git" || path == ".bench_build") {
			return filepath.SkipDir
		}
		if !d.Type().IsRegular() {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		fmt.Fprintf(h, "%s\x00", path)
		_, err = io.Copy(h, f)
		return err
	})
	if err != nil {
		return "unavailable: " + err.Error()
	}
	return hex.EncodeToString(h.Sum(nil))
}

func btoi(v bool) int {
	if v {
		return 1
	}
	return 0
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}
