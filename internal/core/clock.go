package core

import "time"

// Timer is a handle to a scheduled event on a Clock. Stop cancels the
// event and reports whether the call prevented a future firing.
//
// Timer is a type alias for the anonymous single-method interface so that
// clock implementations in other packages (internal/simclock returns its
// own TimerHandle alias) satisfy Clock without importing this package.
type Timer = interface {
	Stop() bool
}

// Clock is the scheduling interface every layer of the stack programs
// against: MonEQ polling timers, environmental-database pollers, cluster
// stepping, experiment drivers. Time is a time.Duration offset from the
// simulation epoch (t = 0).
//
// Decoupling consumers from the concrete clock is what makes clock-domain
// sharding possible: a cluster hands every node (or shard of nodes) its
// own independent Clock, advances the domains concurrently in lock-step
// epochs, and nothing above the substrate can tell the difference —
// callbacks still run sequentially per domain, in timestamp-then-FIFO
// order, so the same seed produces the same output at any worker count.
//
// Implementations must fire events in timestamp order with FIFO ordering
// among events at the same instant, and must run callbacks sequentially on
// the advancing goroutine.
type Clock interface {
	// Now reports the current time as an offset from the epoch.
	Now() time.Duration
	// Every schedules fn to run periodically, first at now+period and then
	// each period thereafter. period must be positive.
	Every(period time.Duration, fn func(now time.Duration)) Timer
}
