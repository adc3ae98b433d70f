package core

import (
	"errors"
	"testing"
)

// labeled wraps a collector with the label its decorator gave it.
type labeled struct {
	Collector
	key      BackendKey
	instance int
}

func TestRegistryDecorateCountsInstancesPerKey(t *testing.T) {
	base := NewRegistry()
	rapl := BackendKey{Platform: RAPL, Method: "MSR"}
	nvml := BackendKey{Platform: NVML, Method: "NVML"}
	for _, key := range []BackendKey{rapl, nvml} {
		key := key
		base.Register(key, func(any) (Collector, error) {
			return &fakeCollector{platform: key.Platform, method: key.Method}, nil
		})
	}
	dec := base.Decorate(func(key BackendKey, instance int, c Collector) Collector {
		return &labeled{Collector: c, key: key, instance: instance}
	})
	if got := dec.Keys(); len(got) != 2 || got[0] != base.Keys()[0] || got[1] != base.Keys()[1] {
		t.Fatalf("decorated keys = %v, want %v", got, base.Keys())
	}

	// Instances count per key, from 0, independently of other keys.
	for i, want := range []struct {
		key      BackendKey
		instance int
	}{{rapl, 0}, {nvml, 0}, {rapl, 1}, {rapl, 2}, {nvml, 1}} {
		c, err := dec.Build(want.key, nil)
		if err != nil {
			t.Fatal(err)
		}
		l := c.(*labeled)
		if l.key != want.key || l.instance != want.instance {
			t.Errorf("build %d: %v#%d, want %v#%d", i, l.key, l.instance, want.key, want.instance)
		}
		if l.Method() != want.key.Method {
			t.Errorf("build %d: wrapped collector method %q", i, l.Method())
		}
	}
	if _, err := dec.Build(BackendKey{Platform: XeonPhi, Method: "nope"}, nil); !errors.Is(err, ErrUnknownBackend) {
		t.Errorf("unknown backend error = %v", err)
	}
}

func TestRegistryDecorateSkipsWrapOnBuildError(t *testing.T) {
	base := NewRegistry()
	key := BackendKey{Platform: RAPL, Method: "MSR"}
	base.Register(key, func(target any) (Collector, error) {
		if target == nil {
			return nil, ErrBadTarget
		}
		return &fakeCollector{platform: RAPL, method: "MSR"}, nil
	})
	var wrapped []int
	dec := base.Decorate(func(_ BackendKey, instance int, c Collector) Collector {
		wrapped = append(wrapped, instance)
		return c
	})
	if _, err := dec.Build(key, nil); !errors.Is(err, ErrBadTarget) {
		t.Fatalf("build error = %v, want ErrBadTarget", err)
	}
	if _, err := dec.Build(key, "socket"); err != nil {
		t.Fatal(err)
	}
	// A failed build consumes no instance number.
	if len(wrapped) != 1 || wrapped[0] != 0 {
		t.Fatalf("wrapped instances = %v, want [0]", wrapped)
	}
}
