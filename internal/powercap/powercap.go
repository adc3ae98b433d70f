// Package powercap closes the monitoring loop: a deterministic feedback
// controller that holds a fleet power budget using the telemetry the rest
// of this repo collects — and keeps holding it while the sensors lie, lag,
// and die.
//
// The paper's mechanisms (RAPL, NVML, MICRAS) are measurement paths with
// real latency, overhead, and failure modes; any control loop built on
// them must treat data age and absence as first-class inputs. The
// controller here is a pure state machine: Step consumes one Observation
// (measured watts + freshness metadata) and emits one Decision (cap watts
// + mode). All policy is explicit in Config, and every decision lands in
// an append-only log whose CSV form is byte-stable — the replay artifact
// CI diffs across seeds, shard counts, and worker counts.
//
// Robustness invariants, each a tested contract:
//
//   - Stale-data fail-safe: an observation older than Freshness (or with
//     no freshness metadata at all) clamps the cap to the budget — "no
//     data" is never read as headroom.
//   - Hysteresis + slew: the cap falls fast (Gain-proportional, slew
//     bounded) but rises only after RecoverHold of sustained fresh data
//     and only by SlewW per step, so a flapping collector cannot
//     oscillate the actuator.
//   - Watchdog ladder: when no fresh data arrives for Watchdog, the
//     controller walks the cap down a published ladder of budget
//     fractions, one rung per LadderHold, ending at FloorW — a
//     time-bounded guarantee independent of step cadence.
package powercap

import (
	"fmt"
	"sort"
	"sync"
	"time"
)

// Mode is the controller's operating state.
type Mode uint8

const (
	// ModeNominal: fresh data, fleet under budget, cap fully raised.
	ModeNominal Mode = iota
	// ModeCapping: fresh data, cap actively below its ceiling.
	ModeCapping
	// ModeStale: last observation was too old (or carried no freshness
	// metadata); cap clamped to the budget, waiting for the watchdog.
	ModeStale
	// ModeDegraded: no fresh data for longer than Watchdog; the cap is
	// walking down the ladder.
	ModeDegraded
)

func (m Mode) String() string {
	switch m {
	case ModeNominal:
		return "nominal"
	case ModeCapping:
		return "capping"
	case ModeStale:
		return "stale"
	case ModeDegraded:
		return "degraded"
	default:
		return fmt.Sprintf("Mode(%d)", uint8(m))
	}
}

// Config parameterizes a Controller. BudgetW is required; every other
// field has a default derived from it (see withDefaults).
type Config struct {
	// BudgetW is the fleet power budget the controller holds.
	BudgetW float64
	// FloorW is the lowest cap the controller ever commands — the
	// "keep the room alive" level the degradation ladder ends at.
	// Default 0.2×BudgetW.
	FloorW float64
	// MaxW is the cap ceiling: the value that means "uncapped".
	// Default 2×BudgetW.
	MaxW float64
	// ToleranceW is the acceptance band for violation accounting:
	// violation seconds accrue while fresh measured power exceeds
	// BudgetW+ToleranceW. Default 0.05×BudgetW.
	ToleranceW float64
	// DeadbandW is the hysteresis band under the budget: the cap only
	// rises while measured power is below BudgetW−DeadbandW, so the loop
	// settles instead of hunting. Lowering has no deadband — any breach
	// acts immediately. Default 0.03×BudgetW.
	DeadbandW float64
	// Gain is the proportional gain: each step moves the cap by
	// Gain×(error watts), slew-limited. Default 0.5.
	Gain float64
	// SlewW bounds cap movement per step in either direction.
	// Default 0.05×BudgetW.
	SlewW float64
	// Freshness is the maximum data age an observation may carry and
	// still drive the loop. Default 3s.
	Freshness time.Duration
	// RecoverHold is how long observations must stay fresh before the
	// cap may rise again — the hysteresis that keeps a flapping
	// collector from oscillating the actuator. Default 2×Freshness.
	RecoverHold time.Duration
	// Watchdog is the no-fresh-data deadline; past it the controller
	// enters ModeDegraded and walks the ladder. Default 10s.
	Watchdog time.Duration
	// Ladder is the published degradation schedule: descending fractions
	// of BudgetW, one rung per LadderHold past the watchdog deadline,
	// with FloorW as the implicit final rung. Default 0.9, 0.75, 0.6, 0.4.
	Ladder []float64
	// LadderHold is the time spent on each rung. Default 5s.
	LadderHold time.Duration
	// LogCapacity bounds the decision log ring. Default 8192.
	LogCapacity int
}

func (c Config) withDefaults() Config {
	if c.FloorW == 0 {
		c.FloorW = 0.2 * c.BudgetW
	}
	if c.MaxW == 0 {
		c.MaxW = 2 * c.BudgetW
	}
	if c.ToleranceW == 0 {
		c.ToleranceW = 0.05 * c.BudgetW
	}
	if c.DeadbandW == 0 {
		c.DeadbandW = 0.03 * c.BudgetW
	}
	if c.Gain == 0 {
		c.Gain = 0.5
	}
	if c.SlewW == 0 {
		c.SlewW = 0.05 * c.BudgetW
	}
	if c.Freshness == 0 {
		c.Freshness = 3 * time.Second
	}
	if c.RecoverHold == 0 {
		c.RecoverHold = 2 * c.Freshness
	}
	if c.Watchdog == 0 {
		c.Watchdog = 10 * time.Second
	}
	if c.Ladder == nil {
		c.Ladder = []float64{0.9, 0.75, 0.6, 0.4}
	}
	if c.LadderHold == 0 {
		c.LadderHold = 5 * time.Second
	}
	if c.LogCapacity == 0 {
		c.LogCapacity = 8192
	}
	return c
}

// Validate checks a fully-defaulted config.
func (c Config) Validate() error {
	if c.BudgetW <= 0 {
		return fmt.Errorf("powercap: budget %v W must be positive", c.BudgetW)
	}
	if c.FloorW < 0 || c.FloorW > c.BudgetW {
		return fmt.Errorf("powercap: floor %v W outside [0, budget %v W]", c.FloorW, c.BudgetW)
	}
	if c.MaxW < c.BudgetW {
		return fmt.Errorf("powercap: max %v W below budget %v W", c.MaxW, c.BudgetW)
	}
	if c.Gain <= 0 || c.SlewW <= 0 {
		return fmt.Errorf("powercap: gain %v and slew %v W must be positive", c.Gain, c.SlewW)
	}
	if c.Freshness <= 0 || c.Watchdog <= 0 || c.LadderHold <= 0 {
		return fmt.Errorf("powercap: freshness %v, watchdog %v, ladder hold %v must be positive",
			c.Freshness, c.Watchdog, c.LadderHold)
	}
	if !sort.SliceIsSorted(c.Ladder, func(i, j int) bool { return c.Ladder[i] > c.Ladder[j] }) {
		return fmt.Errorf("powercap: ladder %v must descend", c.Ladder)
	}
	for _, f := range c.Ladder {
		if f <= 0 || f > 1 {
			return fmt.Errorf("powercap: ladder fraction %v outside (0, 1]", f)
		}
	}
	return nil
}

// Observation is one controller input: what the telemetry plane measured
// and how much that measurement can be trusted.
type Observation struct {
	// Now is the controller's current time (simulated or wall-since-start).
	Now time.Duration
	// MeasuredW is the fleet power the telemetry query reported.
	MeasuredW float64
	// Valid reports whether a measurement was obtained at all; false
	// means the query failed or returned no points.
	Valid bool
	// Age is the measurement's age per the response's freshness metadata;
	// AgeKnown is false when the response carried none — which the
	// controller treats as stale, never fresh.
	Age      time.Duration
	AgeKnown bool
	// Gaps counts explicit gap markers inside the queried window —
	// diagnostics for the decision log, not a control input.
	Gaps int
}

// Decision is one controller output.
type Decision struct {
	Now       time.Duration
	Mode      Mode
	CapW      float64
	MeasuredW float64 // last fresh measurement (carried through stale steps)
	Fresh     bool    // whether this step's observation drove the loop
	Rung      int     // ladder rung in ModeDegraded; -1 otherwise
	Reason    string
}

// Controller is the feedback loop. It is a pure function of its config
// and the observation sequence — no clocks, no randomness, no I/O — so a
// replayed observation stream reproduces the decision log byte for byte.
// Methods are safe for concurrent use (Step serialized against accessors).
type Controller struct {
	mu  sync.Mutex
	cfg Config

	capW     float64
	mode     Mode
	measured float64 // last fresh measurement
	rung     int

	started     bool
	prevNow     time.Duration
	lastFresh   time.Duration // last fresh observation (watchdog epoch)
	lastUnfresh time.Duration // last non-fresh observation (recovery hold)
	everFresh   bool

	violationS float64
	steps      uint64
	log        *Log
}

// New builds a controller with cfg defaulted and validated. The cap
// starts at MaxW (uncapped) in ModeNominal.
func New(cfg Config) (*Controller, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Controller{
		cfg:  cfg,
		capW: cfg.MaxW,
		mode: ModeNominal,
		rung: -1,
		// A cap may not rise before RecoverHold of fresh data even at
		// start; lastUnfresh at 0 arms that hold.
		log: NewLog(cfg.LogCapacity),
	}, nil
}

// Config returns the defaulted configuration the controller runs.
func (c *Controller) Config() Config { return c.cfg }

// slew moves cur toward want by at most SlewW and clamps to
// [FloorW, MaxW].
func (c *Controller) slew(cur, want float64) float64 {
	if want > cur+c.cfg.SlewW {
		want = cur + c.cfg.SlewW
	}
	if want < cur-c.cfg.SlewW {
		want = cur - c.cfg.SlewW
	}
	if want < c.cfg.FloorW {
		want = c.cfg.FloorW
	}
	if want > c.cfg.MaxW {
		want = c.cfg.MaxW
	}
	return want
}

// Step advances the controller by one observation and returns (and logs)
// the resulting decision. Observations must arrive in non-decreasing Now
// order.
func (c *Controller) Step(o Observation) Decision {
	c.mu.Lock()
	defer c.mu.Unlock()
	cfg := c.cfg

	var dt float64
	if c.started && o.Now > c.prevNow {
		dt = (o.Now - c.prevNow).Seconds()
	}
	if !c.started {
		c.started = true
		c.lastFresh = o.Now // watchdog epoch: counts from first step until data arrives
		c.lastUnfresh = o.Now
	}
	c.prevNow = o.Now

	fresh := o.Valid && o.AgeKnown && o.Age <= cfg.Freshness
	var reason string
	if fresh {
		c.lastFresh = o.Now
		c.everFresh = true
		c.measured = o.MeasuredW
		c.rung = -1
		if o.MeasuredW > cfg.BudgetW+cfg.ToleranceW {
			c.violationS += dt
		}
		err := o.MeasuredW - cfg.BudgetW
		switch {
		case err > 0:
			// Any breach lowers the cap immediately; no deadband on the
			// way down.
			c.capW = c.slew(c.capW, c.capW-cfg.Gain*err)
			reason = "over budget"
		case err < -cfg.DeadbandW && c.capW < cfg.MaxW:
			if o.Now-c.lastUnfresh >= cfg.RecoverHold {
				c.capW = c.slew(c.capW, c.capW-cfg.Gain*err)
				reason = "headroom"
			} else {
				reason = "recover hold"
			}
		default:
			reason = "in band"
		}
		if c.capW < cfg.MaxW {
			c.mode = ModeCapping
		} else {
			c.mode = ModeNominal
		}
	} else {
		c.lastUnfresh = o.Now
		sinceData := o.Now - c.lastFresh
		if sinceData <= cfg.Watchdog {
			// Stale fail-safe: the budget is the most optimistic cap a
			// blind controller may hold. Idempotent — a brief blip
			// cannot ratchet the cap down.
			c.mode = ModeStale
			c.rung = -1
			if c.capW > cfg.BudgetW {
				c.capW = cfg.BudgetW
			}
			switch {
			case !o.Valid:
				reason = "no data"
			case !o.AgeKnown:
				reason = "age unknown"
			default:
				reason = "data stale"
			}
		} else {
			// Watchdog expired: walk the ladder. The rung is a pure
			// function of time-without-data, so the schedule holds no
			// matter how often Step runs; the cap only ever descends.
			c.mode = ModeDegraded
			rung := int((sinceData - cfg.Watchdog) / cfg.LadderHold)
			if rung > len(cfg.Ladder) {
				rung = len(cfg.Ladder)
			}
			c.rung = rung
			target := cfg.FloorW
			if rung < len(cfg.Ladder) {
				if t := cfg.Ladder[rung] * cfg.BudgetW; t > target {
					target = t
				}
			}
			if target < c.capW {
				c.capW = target
			}
			reason = "watchdog expired"
		}
	}

	c.steps++
	d := Decision{
		Now:       o.Now,
		Mode:      c.mode,
		CapW:      c.capW,
		MeasuredW: c.measured,
		Fresh:     fresh,
		Rung:      c.rung,
		Reason:    reason,
	}
	c.log.Append(d)
	return d
}

// Cap reports the currently commanded cap in watts.
func (c *Controller) Cap() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.capW
}

// Mode reports the current operating mode.
func (c *Controller) Mode() Mode {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.mode
}

// ViolationSeconds reports accumulated time with fresh measured power
// above BudgetW+ToleranceW. Stale and degraded intervals never accrue:
// absent data is not evidence of a violation — nor of headroom.
func (c *Controller) ViolationSeconds() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.violationS
}

// Steps reports how many observations the controller has consumed.
func (c *Controller) Steps() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.steps
}

// Log returns the controller's decision log.
func (c *Controller) Log() *Log { return c.log }
