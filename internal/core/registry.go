package core

import (
	"errors"
	"fmt"
	"sort"
	"sync"
)

// ErrUnknownBackend is returned by Build when no factory is registered for
// the requested platform/method pair.
var ErrUnknownBackend = errors.New("core: unknown backend")

// ErrBadTarget is returned by a factory handed a target of the wrong type
// for its construction path.
var ErrBadTarget = errors.New("core: wrong target type for backend")

// BackendKey names one vendor access path: a platform plus the method
// string its collector reports (e.g. {RAPL, "MSR"}, {BlueGeneQ, "EMON"}).
// Keys are the registry's coordinates and mirror the mechanism rows of the
// paper's Table II.
type BackendKey struct {
	Platform Platform
	Method   string
}

func (k BackendKey) String() string {
	return fmt.Sprintf("%s/%s", k.Platform, k.Method)
}

// Factory constructs a collector for one backend. target carries the
// vendor-specific handle the mechanism attaches to — a *rapl.Socket, an
// *nvml.Device, a *bgq.NodeCard, a mic target struct. A factory must return
// ErrBadTarget (wrapped or bare) when handed a target it does not
// understand, so callers can distinguish miswiring from device errors.
type Factory func(target any) (Collector, error)

// Registry maps backend keys to collector factories. Vendor packages
// register themselves in init(); binaries and experiments then construct
// collectors by key instead of importing construction details. The
// zero-value Registry is not usable; call NewRegistry.
type Registry struct {
	mu        sync.RWMutex
	factories map[BackendKey]Factory
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{factories: make(map[BackendKey]Factory)}
}

// Register installs a factory for key. Registering a nil factory or the
// same key twice panics: both are wiring bugs, caught at init time.
func (r *Registry) Register(key BackendKey, f Factory) {
	if f == nil {
		panic(fmt.Sprintf("core: nil factory for %s", key))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.factories[key]; dup {
		panic(fmt.Sprintf("core: duplicate backend %s", key))
	}
	r.factories[key] = f
}

// Build constructs a collector for key using its registered factory.
func (r *Registry) Build(key BackendKey, target any) (Collector, error) {
	r.mu.RLock()
	f, ok := r.factories[key]
	r.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownBackend, key)
	}
	return f(target)
}

// Decorate returns a registry whose factories build r's collectors and
// pass each through wrap — the one switch shape behind the fault and
// instrumentation decorators. instance counts the builds of that key, from
// 0; collector construction order is deterministic (nodes are assembled
// before any clock advances), so an instance number names the same
// collector at any shard or worker count.
func (r *Registry) Decorate(wrap func(key BackendKey, instance int, c Collector) Collector) *Registry {
	out := NewRegistry()
	for _, key := range r.Keys() {
		key := key
		var mu sync.Mutex
		instances := 0
		out.Register(key, func(target any) (Collector, error) {
			col, err := r.Build(key, target)
			if err != nil {
				return nil, err
			}
			mu.Lock()
			instance := instances
			instances++
			mu.Unlock()
			return wrap(key, instance, col), nil
		})
	}
	return out
}

// Keys lists the registered backends sorted by platform then method — a
// stable inventory for -backends style listings.
func (r *Registry) Keys() []BackendKey {
	r.mu.RLock()
	keys := make([]BackendKey, 0, len(r.factories))
	for k := range r.factories {
		keys = append(keys, k)
	}
	r.mu.RUnlock()
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].Platform != keys[j].Platform {
			return keys[i].Platform < keys[j].Platform
		}
		return keys[i].Method < keys[j].Method
	})
	return keys
}

// Methods lists the registered method names for one platform, sorted.
func (r *Registry) Methods(p Platform) []string {
	var methods []string
	for _, k := range r.Keys() {
		if k.Platform == p {
			methods = append(methods, k.Method)
		}
	}
	return methods
}

// DefaultRegistry is the process-wide registry vendor packages install
// their factories into at init time.
var DefaultRegistry = NewRegistry()

// Register installs a factory into DefaultRegistry.
func Register(key BackendKey, f Factory) { DefaultRegistry.Register(key, f) }

// Build constructs a collector from DefaultRegistry.
func Build(key BackendKey, target any) (Collector, error) {
	return DefaultRegistry.Build(key, target)
}
