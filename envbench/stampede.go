package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"time"

	"envmon/internal/cluster"
	"envmon/internal/core"
	"envmon/internal/moneq"
	"envmon/internal/telemetry"
	"envmon/internal/workload"
)

// stampede-ingest: envmond's hot path with nothing reading. A 16-node
// Stampede partition on 4 clock-domain shards runs PhiGauss under MonEQ
// with default polling, and every 1 s epoch barrier flushes the new
// samples into a durable store opened the way envmond -data-dir opens it.
// One repetition is a fresh set-up plus stampedeSim of simulated time.
const (
	stampedeNodes  = 16
	stampedeShards = 4
	stampedeSim    = 120 * time.Second
	stampedeEpoch  = time.Second
)

type stampedeRig struct {
	dir     string
	store   *telemetry.Store
	domains *cluster.Domains
	job     *moneq.Job
	cursors []*telemetry.SetCursor
}

func newStampedeRig(b *bench, t *tracer) (*stampedeRig, error) {
	r := &stampedeRig{}
	var err error
	if r.dir, err = b.tmpDir("stampede-"); err != nil {
		return nil, err
	}
	if r.store, err = telemetry.Open(r.dir, telemetry.Options{}); err != nil {
		return nil, err
	}
	c, err := cluster.NewStampede(stampedeNodes, b.seed)
	if err != nil {
		r.close()
		return nil, err
	}
	c.Run(workload.PhiGauss(100*time.Second, 140*time.Second), 0, 50*time.Millisecond)
	r.domains = c.Domains(stampedeShards)
	var cfg cluster.DomainJobConfig
	if t != nil {
		cfg.Registry = traceCollectors(core.DefaultRegistry, t)
	}
	if r.job, err = r.domains.StartJob(cfg); err != nil {
		r.close()
		return nil, err
	}
	for _, m := range r.job.Monitors() {
		r.cursors = append(r.cursors, telemetry.NewSetCursor(r.store, m.Node(), m.Set()))
	}
	return r, nil
}

func (r *stampedeRig) close() {
	if r.store != nil {
		r.store.Close()
	}
	_ = os.RemoveAll(r.dir) // scratch space; the run directory is removed at exit too
}

func runStampede(b *bench) error {
	b.setupEach = setupEach
	b.setup = func() (func(), error) {
		r, err := newStampedeRig(b, nil)
		if err != nil {
			return nil, err
		}
		return r.close, nil
	}
	err := b.reps(func(i int, t *tracer) error {
		sd := b.side(t)
		r, err := newStampedeRig(b, t)
		if err != nil {
			return err
		}
		defer r.close()

		// One operation per epoch: the advance up to the barrier, then the
		// barrier flush. The advance span ends where the barrier begins, so
		// it excludes the callback.
		var flushErr error
		var flushed uint64
		epochStart := time.Now()
		opStart := t.now()
		t.beginOp("epoch")
		r.domains.AdvanceEpochs(stampedeSim, stampedeEpoch, b.workers, func(now time.Duration) {
			t.record("cluster.advance", opStart)
			before := r.store.Samples()
			fs := t.now()
			var err error
			for _, c := range r.cursors {
				if err = c.Flush(); err != nil {
					break
				}
			}
			t.record("telemetry.flush", fs)
			flushed += r.store.Samples() - before
			b.op("epoch", err)
			if err != nil && flushErr == nil {
				flushErr = fmt.Errorf("flush at %v: %w", now, err)
			}
			t.record("op.epoch", opStart)
			d := time.Since(epochStart)
			sd.lat = append(sd.lat, ms(d))
			sd.ops++
			sd.busy += d
			epochStart = time.Now()
			opStart = t.now()
			t.beginOp("epoch")
		})
		if flushErr != nil {
			b.check("barrier flushes succeed", false, flushErr.Error())
		}
		if t != nil {
			b.flushedTraced += flushed
		}
		if _, err := r.job.FinalizeAll(); err != nil {
			return err
		}
		if err := r.store.Flush(); err != nil {
			return err
		}
		b.endRep(t)
		if i < 2 { // the first two; in a traced run, the first of each kind
			t.beginOp("history")
			qs := t.now()
			frames := r.store.Query(telemetry.Query{})
			t.record("telemetry.query", qs)
			b.checkHistory(r, frames)
		}

		st := r.store.StorageStats()
		samples, gaps := r.store.Samples(), r.store.Gaps()
		b.count("cluster.epochs", float64(stampedeSim/stampedeEpoch))
		b.count("telemetry.samples", float64(samples))
		b.count("telemetry.gaps", float64(gaps))
		b.count("telemetry.compactions", float64(st.Compactions))
		b.count("telemetry.block_bytes", float64(st.BlockBytes))
		if t != nil {
			for name, m := range t.mechs {
				b.count("moneq.collect_calls."+name, float64(m.calls.Load()))
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	// sim_rate is ops_per_s (one epoch is 1 simulated second) and the
	// epoch p50 is op_p50_ms, so neither is repeated here.
	b.addTail("epoch", b.sides[0].lat)
	b.addNamed("peak_rss_mb", "MB", maxRSS(), 1)
	b.expect("telemetry", fmt.Sprintf("samples=%v gaps=%v", b.counts["telemetry.samples"], b.counts["telemetry.gaps"]))
	return nil
}

// checkHistory compares a full-history query with what MonEQ collected:
// every sample the monitors hold must come back, once, with its time and
// value, and every gap marker likewise.
func (b *bench) checkHistory(r *stampedeRig, frames []telemetry.Frame) {
	type key = telemetry.SeriesKey
	byKey := make(map[key]telemetry.Frame, len(frames))
	var points int
	for _, f := range frames {
		byKey[f.Key] = f
		points += len(f.Points)
	}
	h := sha256.New()
	var want, gaps int
	problem := ""
	for _, m := range r.job.Monitors() {
		for _, ts := range m.Set().Series {
			backend, domain := telemetry.SplitSeriesName(ts.Name)
			f, ok := byKey[key{Node: m.Node(), Backend: backend, Domain: domain}]
			want += len(ts.Samples)
			gaps += len(ts.Gaps)
			switch {
			case !ok:
				problem = fmt.Sprintf("series %s %s missing", m.Node(), ts.Name)
			case len(f.Points) != len(ts.Samples):
				problem = fmt.Sprintf("series %s %s: %d points, want %d", m.Node(), ts.Name, len(f.Points), len(ts.Samples))
			case len(f.Gaps) != len(ts.Gaps):
				problem = fmt.Sprintf("series %s %s: %d gaps, want %d", m.Node(), ts.Name, len(f.Gaps), len(ts.Gaps))
			default:
				for j, p := range f.Points {
					s := ts.Samples[j]
					if p.T != s.T || p.Last != s.V || p.Count != 1 {
						problem = fmt.Sprintf("series %s %s point %d: (%v, %v), want (%v, %v)", m.Node(), ts.Name, j, p.T, p.Last, s.T, s.V)
						break
					}
					fmt.Fprintf(h, "%d %x\n", p.T, math.Float64bits(p.Last))
				}
			}
		}
	}
	if problem == "" && points != want {
		problem = fmt.Sprintf("query returned %d points, monitors hold %d", points, want)
	}
	if problem == "" && uint64(want) != r.store.Samples() {
		problem = fmt.Sprintf("store counted %d samples, monitors hold %d", r.store.Samples(), want)
	}
	detail := fmt.Sprintf("%d samples, %d gaps in %d series", want, gaps, len(frames))
	if problem != "" {
		detail = problem
	}
	b.check("full-history query returns exactly the ingested samples", problem == "", detail)
	b.expect("history", hex.EncodeToString(h.Sum(nil)))
}
