package faults

import (
	"fmt"

	"envmon/internal/core"
)

// Decorate returns a registry that builds base's collectors wrapped with
// injectors for the plan — the switch that turns a healthy machine into a
// faulty one without touching any call site. Binaries enable it behind a
// -faults flag:
//
//	plan, _ := faults.ParsePlan(*faultsFlag, *seed)
//	reg := faults.Decorate(core.DefaultRegistry, plan)
//	// pass reg wherever a *core.Registry goes
//
// Each built collector gets its own draw stream labeled
// "<platform>/<method>#<instance>", where instance counts builds of that
// backend key. Collector construction order is deterministic (nodes are
// assembled before any clock advances), so the labels — and therefore the
// injected faults — replay identically at any shard or worker count.
//
// An inert plan returns base unchanged.
func Decorate(base *core.Registry, plan Plan) *core.Registry {
	if !plan.Enabled() {
		return base
	}
	return base.Decorate(func(key core.BackendKey, instance int, col core.Collector) core.Collector {
		return Wrap(col, plan, fmt.Sprintf("%s#%d", key, instance), instance)
	})
}
