package telemetry

import "envmon/internal/telemetry/storage"

// Point is one raw sample — an alias of the storage layer's type, so ring
// contents hand off to snapshots and chunks without conversion.
type Point = storage.Point

// Bucket is one rollup bucket: the incremental summary of every sample
// whose time falls in [Start, Start+period). An alias of the storage
// layer's type.
type Bucket = storage.Bucket

// ring is a fixed-capacity ring buffer. When full, pushing evicts the
// oldest entry. The backing array is allocated once, so the steady-state
// push path never allocates.
type ring[T any] struct {
	buf  []T
	head int // index of the oldest element
	n    int
}

func (r *ring[T]) push(v T) {
	if r.n < len(r.buf) {
		r.buf[(r.head+r.n)%len(r.buf)] = v
		r.n++
		return
	}
	r.buf[r.head] = v
	r.head = (r.head + 1) % len(r.buf)
}

// at returns the i-th element in age order (0 = oldest). i must be < n.
func (r *ring[T]) at(i int) T { return r.buf[(r.head+i)%len(r.buf)] }

func (r *ring[T]) len() int { return r.n }

// tail returns the newest element for in-place update, or nil when empty.
func (r *ring[T]) tail() *T {
	if r.n == 0 {
		return nil
	}
	return &r.buf[(r.head+r.n-1)%len(r.buf)]
}

// seam is one stream of a series — raw samples, gap markers, or one
// rollup level's buckets — at the storage engine's count seam: the ring
// holding its newest entries, total (entries ever appended, so the entry
// appended k-th has absolute index k-1), and persisted (how many leading
// entries are sealed in blocks). Blocks serve absolute indexes
// [0, persisted), the ring everything at or above it. In a memory-only
// store persisted stays 0 and the seam degenerates to "serve the ring".
//
// The sealing methods take open, the number of newest entries that are
// never sealed: openBuckets for a rollup level, 0 for raw samples and gap
// markers.
type seam[T any] struct {
	ring      ring[T]
	total     uint64
	persisted uint64
}

// openBuckets is how many of a rollup level's newest buckets stay open to
// absorb later samples: never sealed, persisted only as the block's tail
// snapshot.
const openBuckets = 1

func newSeam[T any](capacity int) seam[T] {
	return seam[T]{ring: ring[T]{buf: make([]T, capacity)}}
}

func (s *seam[T]) append(v T) {
	s.ring.push(v)
	s.total++
}

// pressured reports whether one more push would evict an entry that is
// not yet sealed — the moment compaction must run first.
func (s *seam[T]) pressured() bool {
	c := uint64(len(s.ring.buf))
	return uint64(s.ring.n) == c && s.total-c >= s.persisted
}

// unpersisted returns the sealable entries past the watermark, for a block
// snapshot, and the absolute index of the first. The pressure checks keep
// every such entry ring-resident; the clamp only matters if a capacity was
// shrunk between runs, where the overflow surfaces as an index hole rather
// than being silently misattributed. Callers skip a rollup level with an
// empty ring.
func (s *seam[T]) unpersisted(open uint64) (start uint64, entries []T) {
	n := uint64(s.ring.n) - open
	total := s.total - open
	start = s.persisted
	if total <= s.persisted {
		return start, nil
	}
	u := total - s.persisted
	if u > n {
		u = n
		start = total - n
	}
	for i := n - u; i < n; i++ {
		entries = append(entries, s.ring.at(int(i)))
	}
	return start, entries
}

// markPersisted advances the watermark after a successful block append:
// every sealable entry is now in a block.
func (s *seam[T]) markPersisted(open uint64) {
	if s.total >= open {
		s.persisted = s.total - open
	}
}

// seed positions an empty seam after n entries already sealed in blocks,
// for recovery.
func (s *seam[T]) seed(n uint64) { s.total, s.persisted = n, n }

// served returns the ring index of the first entry a query serves from
// memory: entries below the watermark were already served from blocks.
func (s *seam[T]) served() int {
	if over := int64(s.persisted) - (int64(s.total) - int64(s.ring.n)); over > 0 {
		return int(over)
	}
	return 0
}
