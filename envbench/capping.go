package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"time"

	"envmon/internal/cluster"
	"envmon/internal/core"
	"envmon/internal/faults"
	"envmon/internal/moneq"
	"envmon/internal/powercap"
	"envmon/internal/resilience"
	"envmon/internal/telemetry"
	"envmon/internal/workload"
)

// capping-loop: the closed loop with writes beside reads. The 128-node
// GPU fleet of the powercap chaos acceptance test, under its fault plan
// and admission storm, feeds two in-memory member stores behind one
// envfedd front. At every 1 s barrier the benchmark flushes, observes
// through the front as envcapd does, steps the controller, applies the
// cap and runs the admission gate. One repetition is a fresh set-up plus
// capSteps control steps, the acceptance scenario's 60 simulated seconds;
// a run makes at least capMinReps, so its decide sample has 120 steps or
// more and its p90 at least 12 beyond it.
const (
	capNodes   = 128
	capMembers = 2
	capShards  = 8
	capSteps   = 60
	capMinReps = 2
	capEpoch   = time.Second
)

// capPlan, capConfig, the actuator envelope, the gate and the storm are
// the acceptance scenario's (internal/powercap/chaos_test.go).
func capPlan(seed uint64) faults.Plan {
	return faults.Plan{
		Seed:      seed,
		Transient: 0.10,
		Stuck:     0.02,
		StuckFor:  2 * time.Second,
		Lose:      []faults.Loss{{Method: "NVML", Instance: 17, At: 20 * time.Second}},
	}
}

func capConfig() powercap.Config {
	return powercap.Config{
		BudgetW:     9000,
		FloorW:      3000,
		MaxW:        16000,
		ToleranceW:  800,
		DeadbandW:   300,
		Gain:        1.0,
		SlewW:       2500,
		Freshness:   3 * time.Second,
		RecoverHold: 5 * time.Second,
		Watchdog:    6 * time.Second,
		Ladder:      []float64{0.8, 0.6},
		LadderHold:  4 * time.Second,
	}
}

// setupEach is how many set-ups are timed between repetitions on the two
// workloads whose set-up takes milliseconds.
const setupEach = 8

var capStorm = map[time.Duration]int{capEpoch: 48, 10 * time.Second: 48, 25 * time.Second: 32}

type capRig struct {
	*servingRig
	cluster *cluster.Cluster
	domains *cluster.Domains
	job     *moneq.Job
	cursors []*telemetry.SetCursor
	ctrl    *powercap.Controller
	act     *powercap.ClusterActuator
	gate    *powercap.Gate
	jobs    int
}

func newCapRig(b *bench, t *tracer) (*capRig, error) {
	c, err := cluster.NewGPUCluster(capNodes, 1, b.seed)
	if err != nil {
		return nil, err
	}
	r := &capRig{cluster: c, domains: c.Domains(capShards)}
	reg := faults.Decorate(core.DefaultRegistry, capPlan(b.seed))
	if t != nil {
		reg = traceCollectors(reg, t)
	}
	r.job, err = r.domains.StartJob(cluster.DomainJobConfig{
		Registry:   reg,
		Interval:   500 * time.Millisecond,
		Resilience: &resilience.Policy{},
	})
	if err != nil {
		return nil, err
	}
	stores := make([]*telemetry.Store, capMembers)
	for j := range stores {
		stores[j] = telemetry.New(telemetry.Options{})
	}
	for i, m := range r.job.Monitors() {
		r.cursors = append(r.cursors, telemetry.NewSetCursor(stores[i%capMembers], m.Node(), m.Set()))
	}
	if r.servingRig, err = newServingRig(stores, r.domains.Now); err != nil {
		for _, st := range stores {
			st.Close()
		}
		return nil, err
	}
	if r.ctrl, err = powercap.New(capConfig()); err != nil {
		r.close()
		return nil, err
	}
	r.act = &powercap.ClusterActuator{Cluster: c, IdleW: 44, NodeMaxW: 120}
	r.gate = &powercap.Gate{BudgetW: r.ctrl.Config().BudgetW, ReserveW: 100, ReserveFor: 15 * time.Second}
	return r, nil
}

func (r *capRig) close() {
	r.servingRig.close()
	for _, st := range r.stores {
		st.Close()
	}
}

// enqueue adds n storm jobs; job k lands on node k mod capNodes.
func (r *capRig) enqueue(n int) {
	for range n {
		k := r.jobs
		r.jobs++
		gen := time.Duration(1+k%16) * time.Second
		r.gate.Enqueue(powercap.QueuedJob{
			Name: fmt.Sprintf("job%04d", k),
			Start: func(now time.Duration) {
				r.cluster.Nodes[k%capNodes].Run(workload.VectorAdd(gen, 10*time.Minute), now)
			},
		})
	}
}

func runCapping(b *bench) error {
	b.setupEach = setupEach
	b.minReps = capMinReps
	b.setup = func() (func(), error) {
		r, err := newCapRig(b, nil)
		if err != nil {
			return nil, err
		}
		return r.close, nil
	}
	err := b.reps(func(i int, t *tracer) error {
		sd := b.side(t)
		r, err := newCapRig(b, t)
		if err != nil {
			return err
		}
		defer r.close()
		r.hs.tr.Store(t)

		var flushed uint64
		samples := func() uint64 { return r.stores[0].Samples() + r.stores[1].Samples() }
		epochStart := time.Now()
		opStart := t.now()
		t.beginOp("step")
		r.domains.AdvanceEpochs(capSteps*capEpoch, capEpoch, b.workers, func(now time.Duration) {
			t.record("cluster.advance", opStart)
			before := samples()
			fs := t.now()
			var err error
			for _, c := range r.cursors {
				if err = c.Flush(); err != nil {
					err = fmt.Errorf("flush at %v: %w", now, err)
					break
				}
			}
			t.record("telemetry.flush", fs)
			flushed += samples() - before
			if n, ok := capStorm[now]; ok {
				r.enqueue(n)
			}

			// decide: from the end of the barrier flush to the applied cap.
			decStart := time.Now()
			o := r.observe(t, now)
			ss := t.now()
			dec := r.ctrl.Step(o)
			t.record("powercap.step", ss)
			as := t.now()
			if aerr := r.act.Apply(now, dec.CapW); aerr != nil && err == nil {
				err = fmt.Errorf("apply at %v: %w", now, aerr)
			}
			t.record("powercap.actuate", as)
			d := time.Since(decStart)
			gs := t.now()
			r.gate.Step(dec)
			t.record("powercap.gate", gs)
			t.record("op.step", opStart)
			stepWall := time.Since(epochStart)
			r.hs.idle()
			if err == nil {
				err = r.observeErr(o)
			}
			b.op("step", err)

			sd.lat = append(sd.lat, ms(d))
			sd.ops++
			sd.busy += stepWall
			r.observeProbe(t)
			epochStart = time.Now()
			opStart = t.now()
			t.beginOp("step")
		})
		if _, err := r.job.FinalizeAll(); err != nil {
			return err
		}
		b.endRep(t)
		if t != nil {
			b.flushedTraced += flushed
		}
		var csv bytes.Buffer
		if err := r.ctrl.Log().WriteCSV(&csv); err != nil {
			return err
		}
		v := r.ctrl.ViolationSeconds()
		b.check("violation_s is 0", v == 0, fmt.Sprintf("%v s", v))
		admitted, pending := int(r.gate.Admitted()), r.gate.Pending()
		b.check("admitted + pending = 128", admitted+pending == 128, fmt.Sprintf("%d + %d", admitted, pending))
		b.expect("decision-log-sha256", fmt.Sprintf("%x", sha256.Sum256(csv.Bytes())))
		staleSteps := 0
		for _, d := range r.ctrl.Log().Decisions() {
			if !d.Fresh {
				staleSteps++
			}
		}
		b.count("cluster.epochs", capSteps)
		b.count("telemetry.samples", float64(samples()))
		b.count("telemetry.gaps", float64(r.stores[0].Gaps()+r.stores[1].Gaps()))
		b.count("telemetry.series", float64(r.stores[0].NumSeries()+r.stores[1].NumSeries()))
		b.count("powercap.stale_steps", float64(staleSteps))
		b.count("powercap.admitted", float64(admitted))
		b.count("powercap.decisions", float64(len(r.ctrl.Log().Decisions())))
		b.count("violation_s", v)
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
	// sim_rate is ops_per_s (one step is 1 simulated second) and the
	// decide p50 is op_p50_ms, so neither is repeated here.
	b.addTail("decide", b.sides[0].lat)
	b.addNamed("stale_share", "1", b.counts["powercap.stale_steps"]/capSteps, capSteps)
	b.addNamed("violation_s", "s", b.counts["violation_s"], 1)
	b.addNamed("peak_rss_mb", "MB", maxRSS(), 1)
	b.addNamed("series", "count", b.counts["telemetry.series"], 1)
	return nil
}
