package telemetry

import (
	"fmt"
	"path/filepath"
	"time"

	"envmon/internal/telemetry/block"
	"envmon/internal/telemetry/storage"
	"envmon/internal/telemetry/wal"
)

// This file is the persistence engine beneath the head: opening a data
// directory (block scan + WAL replay), the WAL-ahead journaling the ingest
// path calls, and compaction — sealing each shard's unpersisted tail into
// a block and dropping the journal segment it came from.
//
// Layout under the data directory:
//
//	<dir>/wal/<shard>/<seq>.wal   write-ahead log (internal/telemetry/wal)
//	<dir>/blocks/b-<seq>.blk      compacted blocks (internal/telemetry/block)
//
// Lock order is shard.mu before the block store's internal lock, on both
// the write path (ingest → compaction → block append) and the read path
// (query → block chunk reads).

// Open opens a persistent store rooted at dir, creating the directory
// layout on first use and recovering on every later one: block indexes
// seed each series' persisted watermarks and rollup tails, the WAL replays
// whatever the last run had acknowledged but not yet compacted, and the
// replayed tail is immediately compacted into a block so the store starts
// with an empty journal. Recovery is idempotent — every journal record
// carries its series' absolute index, so records an existing block already
// covers are skipped — and tolerates a torn record at each segment's tail
// (the write the dying process never finished, never acknowledged).
func Open(dir string, opts Options) (*Store, error) {
	st := New(opts)
	st.dataDir = dir

	blocks, err := block.Open(filepath.Join(dir, "blocks"))
	if err != nil {
		return nil, err
	}
	st.blocks = blocks

	// Seed the head from the block indexes: per series, the persisted
	// watermarks, newest instants, and each rollup level's open tail
	// bucket, so incremental accumulation resumes exactly where the
	// sealed data ends.
	blocks.Each(func(key storage.SeriesKey, a block.Agg) {
		s := st.recoverSeries(key, a.Unit)
		s.raw.seed(a.Points)
		s.gaps.seed(a.Gaps)
		s.minT, s.lastT, s.lastGapT = a.MinT, a.LastT, a.LastGapT
		for l := range s.roll {
			s.roll[l].seed(a.Buckets[l])
			if a.Tails[l] != nil {
				s.roll[l].append(*a.Tails[l])
			}
		}
		st.samples.Add(a.Points)
		st.gaps.Add(a.Gaps)
	})

	// Replay the journal on top. Records arrive sorted by (series, index);
	// anything below the series' watermark is a duplicate from an
	// interrupted compaction, anything at the watermark is applied, and an
	// index beyond it means the journal lost acknowledged records (counted,
	// not invented).
	walDir := filepath.Join(dir, "wal")
	samples, gaps, err := wal.Replay(walDir)
	if err != nil {
		blocks.Close()
		return nil, err
	}
	for _, smp := range samples {
		s := st.recoverSeries(smp.Key, smp.Unit)
		switch {
		case smp.Index < s.raw.total:
			// already persisted (or duplicated in an older segment)
		case smp.Index == s.raw.total:
			s.append(smp.T, smp.V)
			st.samples.Add(1)
			st.recovered.Samples++
		default:
			st.recovered.Lost++
		}
	}
	for _, g := range gaps {
		s := st.recoverSeries(g.Key, g.Unit)
		switch {
		case g.Index < s.gaps.total:
		case g.Index == s.gaps.total:
			s.appendGap(g.T)
			st.gaps.Add(1)
			st.recovered.Gaps++
		default:
			st.recovered.Lost++
		}
	}
	st.recovered.Series = int(st.nseries.Load())

	w, err := wal.Create(walDir, st.opts.Shards)
	if err != nil {
		blocks.Close()
		return nil, err
	}
	st.wal = w
	for i := range st.shards {
		st.shards[i].wal = w.Shard(i)
		st.shards[i].walEpoch = 1
	}

	// Seal the replayed tail into a block and drop the recovered segments,
	// so a second crash re-reads blocks, not a growing journal. Forced, so
	// even shards with nothing new rotate away their old segments.
	for i := range st.shards {
		sh := &st.shards[i]
		if err := st.compactShardLocked(sh, true); err != nil {
			st.Close()
			blocks.Close()
			return nil, err
		}
	}
	return st, nil
}

// recoverSeries returns the series for key, creating it unjournaled. Only
// called from Open, before the store is shared, so no locks are taken.
func (st *Store) recoverSeries(key SeriesKey, unit string) *series {
	sh := &st.shards[key.Hash()%uint64(len(st.shards))]
	s := sh.series[key]
	if s == nil {
		s = newSeries(key, unit, st.opts)
		sh.series[key] = s
		st.nseries.Add(1)
	}
	return s
}

// journalSampleLocked makes the sample durable before the head absorbs it,
// appending the record at the sample's absolute index. Caller holds sh.mu
// and has validated time order.
func (st *Store) journalSampleLocked(sh *shard, s *series, t time.Duration, v float64) error {
	if err := st.journalLocked(sh, s, s.samplePressured(t)); err != nil {
		return err
	}
	return sh.wal.AppendSample(s.walRef, s.raw.total, t, v)
}

// journalGapLocked is journalSampleLocked for gap markers.
func (st *Store) journalGapLocked(sh *shard, s *series, t time.Duration) error {
	if err := st.journalLocked(sh, s, s.gaps.pressured()); err != nil {
		return err
	}
	return sh.wal.AppendGap(s.walRef, s.gaps.total, t)
}

// journalLocked readies the shard's journal for one more record of s:
// compact first if absorbing the record would evict unpersisted data
// (pressured) or the segment is over budget, then declare the series in
// the current segment if it is not yet. Caller holds sh.mu.
func (st *Store) journalLocked(sh *shard, s *series, pressured bool) error {
	if pressured || sh.wal.Size() >= st.opts.WALSegmentBytes {
		if err := st.compactShardLocked(sh, false); err != nil {
			return err
		}
	}
	if s.walEpoch != sh.walEpoch {
		ref, err := sh.wal.AppendSeries(s.key, s.unit)
		if err != nil {
			return err
		}
		s.walRef, s.walEpoch = ref, sh.walEpoch
	}
	return nil
}

// samplePressured reports whether absorbing a sample at t would push
// unpersisted data out of a ring — the raw ring, or a full rollup ring
// about to open a new bucket.
func (s *series) samplePressured(t time.Duration) bool {
	if s.raw.pressured() {
		return true
	}
	for l, period := range rollupPeriods {
		lv := &s.roll[l]
		if b := lv.ring.tail(); b != nil && b.Start == t-t%period {
			continue // absorbed by the tail: no push, no eviction
		}
		if lv.pressured() {
			return true
		}
	}
	return false
}

// compactShardLocked seals every series' unpersisted tail in the shard
// into one block, advances the watermarks, and rotates the shard's WAL
// (the journaled records are all in the block now). force rotates even
// when there is nothing to seal — Open uses it to drop recovered
// segments. Caller holds sh.mu; lock order shard → blocks.
func (st *Store) compactShardLocked(sh *shard, force bool) error {
	var snaps []storage.SeriesSnapshot
	for _, s := range sh.series {
		if s.raw.total > s.raw.persisted || s.gaps.total > s.gaps.persisted {
			snaps = append(snaps, s.snapshotLocked())
		}
	}
	if len(snaps) == 0 && !force {
		return nil
	}
	o := st.obs
	var start time.Time
	if o != nil {
		start = time.Now()
	}
	if len(snaps) > 0 {
		if err := st.blocks.Append(snaps); err != nil {
			return err
		}
		for _, s := range sh.series {
			s.markPersistedLocked()
		}
		st.compactions.Add(1)
	}
	if err := sh.wal.Rotate(); err != nil {
		return err
	}
	sh.walEpoch++
	if o != nil {
		wall := time.Since(start)
		o.compactStage.Observe(wall, 0)
		o.slow.Observe("compaction", wall, 0, func() string {
			return fmt.Sprintf("series=%d forced=%v", len(snaps), force)
		})
	}
	return nil
}

// snapshotLocked seals the series' unpersisted tail for a block writer:
// the ring-resident samples, gaps, and sealed buckets past each watermark,
// plus every level's open-tail state.
func (s *series) snapshotLocked() storage.SeriesSnapshot {
	sn := storage.SeriesSnapshot{Key: s.key, Unit: s.unit, LastT: s.lastT, LastGapT: s.lastGapT}
	sn.StartPoint, sn.Points = s.raw.unpersisted(0)
	sn.StartGap, sn.Gaps = s.gaps.unpersisted(0)
	for l := range s.roll {
		tail := s.roll[l].ring.tail()
		if tail == nil {
			continue
		}
		lv := &sn.Levels[l]
		lv.StartBucket, lv.Closed = s.roll[l].unpersisted(openBuckets)
		tb := *tail
		lv.Tail = &tb
	}
	return sn
}

// markPersistedLocked advances the watermarks after a successful block
// append: everything currently in memory is sealed.
func (s *series) markPersistedLocked() {
	s.raw.markPersisted(0)
	s.gaps.markPersisted(0)
	for l := range s.roll {
		s.roll[l].markPersisted(openBuckets)
	}
}

// Flush compacts every shard's unpersisted tail into blocks. After a
// successful Flush the in-memory state is fully reconstructible from the
// block store alone — the guarantee a daemon wants before exiting. A
// memory-only store flushes trivially.
func (st *Store) Flush() error {
	if st.wal == nil {
		return nil
	}
	for i := range st.shards {
		sh := &st.shards[i]
		sh.mu.Lock()
		var err error
		if sh.wal != nil {
			err = st.compactShardLocked(sh, false)
		}
		sh.mu.Unlock()
		if err != nil {
			return fmt.Errorf("telemetry: flush: %w", err)
		}
	}
	return nil
}

// RecoveryStats describes what Open reconstructed from the data directory.
type RecoveryStats struct {
	// Series is the number of series restored (blocks and journal).
	Series int
	// Samples / Gaps are the records replayed from the WAL — acknowledged
	// ingests the last run had not yet compacted.
	Samples uint64
	Gaps    uint64
	// Lost counts journal records that could not be applied because their
	// index was past the series' end — acknowledged data the journal no
	// longer accounts for. Zero in every crash the engine models.
	Lost uint64
}

// StorageStats is a point-in-time view of the persistence tiers, for
// health endpoints. The zero value (Persistent false) is a memory-only
// store.
type StorageStats struct {
	Persistent  bool
	DataDir     string
	Blocks      int    // sealed block files
	BlockBytes  int64  // total block file bytes
	WALBytes    int64  // live journal bytes across shards
	Compactions uint64 // blocks written since open
	ReadErrors  uint64 // block read failures during queries
	Recovery    RecoveryStats
}

// StorageStats reports the persistence tiers' current state.
func (st *Store) StorageStats() StorageStats {
	if st.blocks == nil {
		return StorageStats{}
	}
	stats := StorageStats{
		Persistent:  true,
		DataDir:     st.dataDir,
		Blocks:      st.blocks.NumBlocks(),
		BlockBytes:  st.blocks.Bytes(),
		Compactions: st.compactions.Load(),
		ReadErrors:  st.readErrs.Load(),
		Recovery:    st.recovered,
	}
	for i := range st.shards {
		sh := &st.shards[i]
		sh.mu.RLock()
		if sh.wal != nil {
			stats.WALBytes += sh.wal.Size()
		}
		sh.mu.RUnlock()
	}
	return stats
}

// MaxTime reports the newest sample or gap instant across every series (0
// when empty). A restarting daemon offsets its clock past this so new
// ingests never run backwards against recovered series.
func (st *Store) MaxTime() time.Duration {
	var max time.Duration
	for i := range st.shards {
		sh := &st.shards[i]
		sh.mu.RLock()
		for _, s := range sh.series {
			if s.raw.total > 0 && s.lastT > max {
				max = s.lastT
			}
			if s.gaps.total > 0 && s.lastGapT > max {
				max = s.lastGapT
			}
		}
		sh.mu.RUnlock()
	}
	return max
}
