package telemetry

import (
	"fmt"
	"time"

	"envmon/internal/telemetry/storage"
)

// Resolution selects which ladder level a query reads: the raw ring or one
// of the rollup levels.
type Resolution uint8

const (
	// Raw serves the per-sample ring.
	Raw Resolution = iota
	// Res1s serves 1-second rollup buckets.
	Res1s
	// Res10s serves 10-second rollup buckets.
	Res10s
	// Res60s serves 60-second rollup buckets.
	Res60s
)

// rollupPeriods holds the ladder's bucket widths, index-aligned with the
// series' rollup rings (Resolution r > Raw maps to level r-1). The widths
// are owned by the storage layer so block files agree with the head.
var rollupPeriods = storage.RollupPeriods

const numRollupLevels = storage.NumRollupLevels

// Period reports the bucket width of the resolution (0 for Raw).
func (r Resolution) Period() time.Duration {
	if r == Raw {
		return 0
	}
	return rollupPeriods[r-1]
}

func (r Resolution) String() string {
	switch r {
	case Raw:
		return "raw"
	case Res1s:
		return "1s"
	case Res10s:
		return "10s"
	case Res60s:
		return "60s"
	default:
		return fmt.Sprintf("Resolution(%d)", uint8(r))
	}
}

// ParseResolution is the inverse of String, for query parameters. The
// empty string selects Raw.
func ParseResolution(s string) (Resolution, error) {
	switch s {
	case "", "raw":
		return Raw, nil
	case "1s":
		return Res1s, nil
	case "10s":
		return Res10s, nil
	case "60s":
		return Res60s, nil
	default:
		return Raw, fmt.Errorf("telemetry: unknown resolution %q (raw|1s|10s|60s)", s)
	}
}

// series is one stored time series: the raw samples, the gap markers,
// and one bucket stream per rollup level, each a seam over a preallocated
// ring. Access is guarded by the owning shard's lock.
//
// The seams track the series' position against the storage engine's count
// seam: every sample, gap marker and bucket has an absolute index in its
// stream (a bucket's is the order the series opened it at that level), and
// the compaction pressure checks keep every unpersisted entry resident in
// its ring.
type series struct {
	key      SeriesKey
	unit     string
	raw      seam[Point]
	gaps     seam[time.Duration]
	roll     [numRollupLevels]seam[Bucket]
	minT     time.Duration // first sample ever (valid when raw.total > 0)
	lastT    time.Duration
	lastGapT time.Duration

	walRef   uint64 // series ref in the shard's current WAL segment
	walEpoch uint64 // shard walEpoch the ref belongs to (0 = undeclared)
}

func newSeries(key SeriesKey, unit string, opts Options) *series {
	s := &series{key: key, unit: unit,
		raw:  newSeam[Point](opts.RawCapacity),
		gaps: newSeam[time.Duration](opts.GapCapacity)}
	for i := range s.roll {
		s.roll[i] = newSeam[Bucket](opts.RollupCapacity)
	}
	return s
}

// append records one sample and updates every rollup level incrementally:
// either the open tail bucket absorbs the sample or a new bucket is pushed.
// The caller has already checked time order; t >= lastT holds.
func (s *series) append(t time.Duration, v float64) {
	if s.raw.total == 0 {
		s.minT = t
	}
	s.raw.append(Point{T: t, V: v})
	s.lastT = t
	for i, period := range rollupPeriods {
		start := t - t%period
		lv := &s.roll[i]
		if b := lv.ring.tail(); b != nil && b.Start == start {
			if v < b.Min {
				b.Min = v
			}
			if v > b.Max {
				b.Max = v
			}
			b.Sum += v
			b.Last = v
			b.Count++
			continue
		}
		lv.append(Bucket{Start: start, Count: 1, Min: v, Max: v, Sum: v, Last: v})
	}
}

// appendGap records one failed-poll marker. The caller has already checked
// time order.
func (s *series) appendGap(t time.Duration) {
	s.gaps.append(t)
	s.lastGapT = t
}
