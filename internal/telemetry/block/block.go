// Package block is the sealed tier of the telemetry storage engine:
// immutable on-disk files of compressed chunks, produced by compacting the
// head's unpersisted tail (a storage.SeriesSnapshot per series).
//
// A block file holds, per series: the raw points as a Gorilla chunk
// (delta-of-delta timestamps, XOR values), the gap markers as a varint
// chunk, and each rollup level's sealed buckets plus a snapshot of the
// open tail bucket. Every chunk is labelled with the absolute index range
// it covers in its series' stream, which is what lets the query layer
// stitch blocks and the in-memory head together with no overlap and no
// holes, and lets WAL replay skip records a block already holds.
//
// Files are written once — temp file, fsync, atomic rename — and never
// modified; readers keep them open and serve chunk reads by offset. The
// Store is the directory-level view: every block file in sequence order
// plus a per-series aggregate (persisted counts, newest instants, rollup
// tails) that recovery seeds the head from.
package block

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"envmon/internal/telemetry/storage"
)

const (
	magic    = "ENVB"
	trailer  = "BKNE"
	version  = 1
	numLvl   = storage.NumRollupLevels
	footerSz = 4 + 4 + 8 + 4 // index crc + index len + index off + trailer
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Agg is the per-series aggregate across every block in a store: how much
// of the series is persisted and the state recovery re-seeds the head
// with.
type Agg struct {
	Unit string
	// Points/Gaps are the persisted counts: block chunks cover absolute
	// indexes [0, Points) and [0, Gaps).
	Points uint64
	Gaps   uint64
	// Buckets counts the persisted sealed buckets per rollup level.
	Buckets [numLvl]uint64
	// Tails holds each level's open-bucket snapshot from the newest block
	// containing the series (nil when the level had no buckets).
	Tails [numLvl]*storage.Bucket
	// MinT is the oldest persisted point instant (valid when Points > 0).
	MinT time.Duration
	// LastT / LastGapT are the newest persisted instants.
	LastT    time.Duration
	LastGapT time.Duration
}

// chunkRef locates one chunk of a series in a block file: the absolute
// index range it covers in the series' stream, [start, start+count), and
// its byte range in the file.
type chunkRef struct {
	start, count uint64
	off, length  uint64
}

// end is one past the chunk's last absolute index.
func (c chunkRef) end() uint64 { return c.start + c.count }

// seriesEntry is one series' index entry: a chunk per stream (points,
// gaps, each rollup level's sealed buckets) plus the instants and open
// tail buckets recovery re-seeds the head with.
type seriesEntry struct {
	key        storage.SeriesKey
	unit       string
	points     chunkRef
	gaps       chunkRef
	levels     [numLvl]chunkRef
	tails      [numLvl]*storage.Bucket
	minT, maxT time.Duration
	lastGapT   time.Duration
}

type file struct {
	f       *os.File
	seq     uint64
	size    int64
	entries map[storage.SeriesKey]*seriesEntry
}

// Store is the read view over a block directory plus the writer that
// appends new blocks. Safe for concurrent use.
type Store struct {
	mu      sync.RWMutex
	dir     string
	files   []*file
	agg     map[storage.SeriesKey]*Agg
	nextSeq uint64
	bytes   int64
}

// Open scans dir (created if missing) and opens every block file in
// sequence order. Stray temporary files from an interrupted write are
// removed.
func Open(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("block: %w", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("block: %w", err)
	}
	s := &Store{dir: dir, agg: map[storage.SeriesKey]*Agg{}, nextSeq: 1}
	var seqs []uint64
	for _, e := range entries {
		name := e.Name()
		if strings.HasSuffix(name, ".tmp") {
			_ = os.Remove(filepath.Join(dir, name))
			continue
		}
		if !strings.HasPrefix(name, "b-") || !strings.HasSuffix(name, ".blk") {
			continue
		}
		seq, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, "b-"), ".blk"), 10, 64)
		if err != nil {
			continue
		}
		seqs = append(seqs, seq)
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	for _, seq := range seqs {
		bf, err := openFile(filepath.Join(dir, blockName(seq)), seq)
		if err != nil {
			s.Close()
			return nil, err
		}
		s.publish(bf)
	}
	return s, nil
}

func blockName(seq uint64) string { return fmt.Sprintf("b-%08d.blk", seq) }

// publish adds an opened file to the store view and folds it into the
// per-series aggregates. Caller holds the write lock (or owns s solely).
func (s *Store) publish(bf *file) {
	s.files = append(s.files, bf)
	s.bytes += bf.size
	if bf.seq >= s.nextSeq {
		s.nextSeq = bf.seq + 1
	}
	for key, e := range bf.entries {
		a := s.agg[key]
		if a == nil {
			a = &Agg{}
			s.agg[key] = a
		}
		a.Unit = e.unit
		if e.points.count > 0 {
			if a.Points == 0 {
				a.MinT = e.minT // files fold in seq order; the first is oldest
			}
			if end := e.points.end(); end > a.Points {
				a.Points = end
				a.LastT = e.maxT
			}
		}
		if end := e.gaps.end(); end > a.Gaps {
			a.Gaps = end
			a.LastGapT = e.lastGapT
		}
		for l := range e.levels {
			if end := e.levels[l].end(); end > a.Buckets[l] {
				a.Buckets[l] = end
			}
			if e.tails[l] != nil {
				a.Tails[l] = e.tails[l]
			}
		}
	}
}

// Append writes one block holding the snapshots and publishes it. Empty
// snapshots (nothing new anywhere) are a no-op.
func (s *Store) Append(snaps []storage.SeriesSnapshot) error {
	nonEmpty := snaps[:0:0]
	for _, sn := range snaps {
		if len(sn.Points) > 0 || len(sn.Gaps) > 0 || anyClosed(sn) {
			nonEmpty = append(nonEmpty, sn)
		}
	}
	if len(nonEmpty) == 0 {
		return nil
	}
	sort.Slice(nonEmpty, func(i, j int) bool { return storage.KeyLess(nonEmpty[i].Key, nonEmpty[j].Key) })

	s.mu.Lock()
	defer s.mu.Unlock()
	seq := s.nextSeq
	path := filepath.Join(s.dir, blockName(seq))
	if err := writeFile(path, nonEmpty); err != nil {
		return err
	}
	bf, err := openFile(path, seq)
	if err != nil {
		return err
	}
	s.publish(bf)
	return nil
}

func anyClosed(sn storage.SeriesSnapshot) bool {
	for _, lv := range sn.Levels {
		if len(lv.Closed) > 0 {
			return true
		}
	}
	return false
}

func writeFile(path string, snaps []storage.SeriesSnapshot) error {
	buf := make([]byte, 0, 64<<10)
	buf = append(buf, magic...)
	buf = binary.LittleEndian.AppendUint32(buf, version)

	// put appends one chunk and returns its reference.
	put := func(start uint64, count int, encode func([]byte) []byte) chunkRef {
		off := uint64(len(buf))
		buf = encode(buf)
		return chunkRef{start: start, count: uint64(count), off: off, length: uint64(len(buf)) - off}
	}
	entries := make([]seriesEntry, len(snaps))
	for i, sn := range snaps {
		e := &entries[i]
		e.key, e.unit, e.lastGapT = sn.Key, sn.Unit, sn.LastGapT
		if len(sn.Points) > 0 {
			e.minT, e.maxT = sn.Points[0].T, sn.Points[len(sn.Points)-1].T
		}
		e.points = put(sn.StartPoint, len(sn.Points), func(b []byte) []byte { return storage.EncodePoints(b, sn.Points) })
		e.gaps = put(sn.StartGap, len(sn.Gaps), func(b []byte) []byte { return storage.EncodeGaps(b, sn.Gaps) })
		for l, lv := range sn.Levels {
			e.levels[l] = put(lv.StartBucket, len(lv.Closed), func(b []byte) []byte { return storage.EncodeBuckets(b, lv.Closed) })
			e.tails[l] = lv.Tail
		}
	}

	indexOff := uint64(len(buf))
	idx := make([]byte, 0, 4<<10)
	idx = binary.LittleEndian.AppendUint32(idx, uint32(len(entries)))
	for i := range entries {
		idx = appendEntry(idx, &entries[i])
	}
	buf = append(buf, idx...)
	buf = binary.LittleEndian.AppendUint32(buf, crc32.Checksum(idx, castagnoli))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(idx)))
	buf = binary.LittleEndian.AppendUint64(buf, indexOff)
	buf = append(buf, trailer...)

	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("block: %w", err)
	}
	if _, err := f.Write(buf); err != nil {
		f.Close()
		return fmt.Errorf("block: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("block: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("block: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("block: %w", err)
	}
	if d, err := os.Open(filepath.Dir(path)); err == nil {
		_ = d.Sync()
		_ = d.Close()
	}
	return nil
}

// appendEntry appends one series' index entry. The field order is the
// file format: parseEntry reads it back in the same order.
func appendEntry(idx []byte, e *seriesEntry) []byte {
	idx = appendString(idx, e.key.Node)
	idx = appendString(idx, e.key.Backend)
	idx = appendString(idx, e.key.Domain)
	idx = appendString(idx, e.unit)
	idx = binary.AppendUvarint(idx, e.points.start)
	idx = binary.AppendUvarint(idx, e.points.count)
	idx = binary.AppendVarint(idx, int64(e.minT))
	idx = binary.AppendVarint(idx, int64(e.maxT))
	idx = binary.AppendVarint(idx, int64(e.lastGapT))
	idx = binary.AppendUvarint(idx, e.gaps.start)
	idx = binary.AppendUvarint(idx, e.gaps.count)
	idx = binary.AppendUvarint(idx, e.points.off)
	idx = binary.AppendUvarint(idx, e.points.length)
	idx = binary.AppendUvarint(idx, e.gaps.off)
	idx = binary.AppendUvarint(idx, e.gaps.length)
	for l, c := range e.levels {
		idx = binary.AppendUvarint(idx, c.start)
		idx = binary.AppendUvarint(idx, c.count)
		idx = binary.AppendUvarint(idx, c.off)
		idx = binary.AppendUvarint(idx, c.length)
		tail := e.tails[l]
		if tail == nil {
			idx = append(idx, 0)
			continue
		}
		idx = append(idx, 1)
		idx = binary.AppendVarint(idx, int64(tail.Start))
		idx = binary.AppendUvarint(idx, uint64(tail.Count))
		idx = binary.LittleEndian.AppendUint64(idx, math.Float64bits(tail.Min))
		idx = binary.LittleEndian.AppendUint64(idx, math.Float64bits(tail.Max))
		idx = binary.LittleEndian.AppendUint64(idx, math.Float64bits(tail.Sum))
		idx = binary.LittleEndian.AppendUint64(idx, math.Float64bits(tail.Last))
	}
	return idx
}

func appendString(p []byte, s string) []byte {
	p = binary.AppendUvarint(p, uint64(len(s)))
	return append(p, s...)
}

func openFile(path string, seq uint64) (*file, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("block: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("block: %w", err)
	}
	size := st.Size()
	if size < int64(8+footerSz) {
		f.Close()
		return nil, fmt.Errorf("block: %s: too short", path)
	}
	footer := make([]byte, footerSz)
	if _, err := f.ReadAt(footer, size-int64(footerSz)); err != nil {
		f.Close()
		return nil, fmt.Errorf("block: %w", err)
	}
	if string(footer[16:]) != trailer {
		f.Close()
		return nil, fmt.Errorf("block: %s: bad trailer", path)
	}
	idxSum := binary.LittleEndian.Uint32(footer[:4])
	idxLen := binary.LittleEndian.Uint32(footer[4:8])
	idxOff := binary.LittleEndian.Uint64(footer[8:16])
	if idxOff+uint64(idxLen) > uint64(size) {
		f.Close()
		return nil, fmt.Errorf("block: %s: index out of range", path)
	}
	idx := make([]byte, idxLen)
	if _, err := f.ReadAt(idx, int64(idxOff)); err != nil {
		f.Close()
		return nil, fmt.Errorf("block: %w", err)
	}
	if crc32.Checksum(idx, castagnoli) != idxSum {
		f.Close()
		return nil, fmt.Errorf("block: %s: index checksum mismatch", path)
	}
	bf := &file{f: f, seq: seq, size: size, entries: map[storage.SeriesKey]*seriesEntry{}}
	if err := bf.parseIndex(idx); err != nil {
		f.Close()
		return nil, fmt.Errorf("block: %s: %w", path, err)
	}
	return bf, nil
}

type idxReader struct {
	p   []byte
	err error
}

func (r *idxReader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.p)
	if n <= 0 {
		r.err = errors.New("index truncated")
		return 0
	}
	r.p = r.p[n:]
	return v
}

func (r *idxReader) varint() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.p)
	if n <= 0 {
		r.err = errors.New("index truncated")
		return 0
	}
	r.p = r.p[n:]
	return v
}

func (r *idxReader) str() string {
	l := r.uvarint()
	if r.err != nil {
		return ""
	}
	if uint64(len(r.p)) < l {
		r.err = errors.New("index truncated")
		return ""
	}
	s := string(r.p[:l])
	r.p = r.p[l:]
	return s
}

func (r *idxReader) f64() float64 {
	if r.err != nil {
		return 0
	}
	if len(r.p) < 8 {
		r.err = errors.New("index truncated")
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(r.p))
	r.p = r.p[8:]
	return v
}

func (r *idxReader) byte() byte {
	if r.err != nil {
		return 0
	}
	if len(r.p) == 0 {
		r.err = errors.New("index truncated")
		return 0
	}
	b := r.p[0]
	r.p = r.p[1:]
	return b
}

func (bf *file) parseIndex(idx []byte) error {
	if len(idx) < 4 {
		return errors.New("index truncated")
	}
	n := binary.LittleEndian.Uint32(idx)
	r := &idxReader{p: idx[4:]}
	for i := uint32(0); i < n; i++ {
		e := r.entry()
		if r.err != nil {
			return r.err
		}
		bf.entries[e.key] = e
	}
	return nil
}

// entry reads one index entry in appendEntry's field order.
func (r *idxReader) entry() *seriesEntry {
	e := &seriesEntry{}
	e.key.Node = r.str()
	e.key.Backend = r.str()
	e.key.Domain = r.str()
	e.unit = r.str()
	e.points.start = r.uvarint()
	e.points.count = r.uvarint()
	e.minT = time.Duration(r.varint())
	e.maxT = time.Duration(r.varint())
	e.lastGapT = time.Duration(r.varint())
	e.gaps.start = r.uvarint()
	e.gaps.count = r.uvarint()
	e.points.off = r.uvarint()
	e.points.length = r.uvarint()
	e.gaps.off = r.uvarint()
	e.gaps.length = r.uvarint()
	for l := range e.levels {
		c := &e.levels[l]
		c.start = r.uvarint()
		c.count = r.uvarint()
		c.off = r.uvarint()
		c.length = r.uvarint()
		if r.byte() == 1 {
			tail := &storage.Bucket{
				Start: time.Duration(r.varint()),
				Count: int(r.uvarint()),
			}
			tail.Min = r.f64()
			tail.Max = r.f64()
			tail.Sum = r.f64()
			tail.Last = r.f64()
			e.tails[l] = tail
		}
	}
	return e
}

func (bf *file) chunk(off, length uint64) ([]byte, error) {
	buf := make([]byte, length)
	if _, err := bf.f.ReadAt(buf, int64(off)); err != nil {
		return nil, fmt.Errorf("block: reading chunk: %w", err)
	}
	return buf, nil
}

// Agg reports the series' cross-block aggregate.
func (s *Store) Agg(key storage.SeriesKey) (Agg, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	a, ok := s.agg[key]
	if !ok {
		return Agg{}, false
	}
	return *a, true
}

// Each calls fn for every series with persisted data, in key order.
func (s *Store) Each(fn func(key storage.SeriesKey, a Agg)) {
	s.mu.RLock()
	keys := make([]storage.SeriesKey, 0, len(s.agg))
	for k := range s.agg {
		keys = append(keys, k)
	}
	s.mu.RUnlock()
	sort.Slice(keys, func(i, j int) bool { return storage.KeyLess(keys[i], keys[j]) })
	for _, k := range keys {
		if a, ok := s.Agg(k); ok {
			fn(k, a)
		}
	}
}

// EachPoint streams the series' persisted points inside [from, to) — to
// <= 0 means unbounded — in ingest order across blocks.
func (s *Store) EachPoint(key storage.SeriesKey, from, to time.Duration, fn func(storage.Point)) error {
	return eachChunk(s, key, func(e *seriesEntry) chunkRef {
		if e.maxT < from || (to > 0 && e.minT >= to) {
			return chunkRef{} // no point of this block is in the window
		}
		return e.points
	}, storage.DecodePoints, func(p storage.Point) {
		if p.T >= from && (to <= 0 || p.T < to) {
			fn(p)
		}
	})
}

// EachClosedBucket streams the series' persisted sealed buckets at the
// level, in order, for every bucket overlapping the window: buckets whose
// [Start, Start+period) intersects [from, to).
func (s *Store) EachClosedBucket(key storage.SeriesKey, level int, period, from, to time.Duration, fn func(storage.Bucket)) error {
	return eachChunk(s, key, func(e *seriesEntry) chunkRef { return e.levels[level] },
		storage.DecodeBuckets, func(b storage.Bucket) {
			if b.Start+period > from && (to <= 0 || b.Start < to) {
				fn(b)
			}
		})
}

// EachGap streams the series' persisted gap markers inside [from, to) in
// order.
func (s *Store) EachGap(key storage.SeriesKey, from, to time.Duration, fn func(time.Duration)) error {
	return eachChunk(s, key, func(e *seriesEntry) chunkRef { return e.gaps },
		storage.DecodeGaps, func(g time.Duration) {
			if g >= from && (to <= 0 || g < to) {
				fn(g)
			}
		})
}

// eachChunk is the one chunk walk under the Each* readers: in block order,
// it reads the chunk pick selects from every file holding the series
// (skipping empty ones), decodes it, and hands fn each item.
func eachChunk[T any](s *Store, key storage.SeriesKey, pick func(*seriesEntry) chunkRef,
	decode func([]T, []byte, int) ([]T, error), fn func(T)) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var scratch []T
	for _, bf := range s.files {
		e, ok := bf.entries[key]
		if !ok {
			continue
		}
		c := pick(e)
		if c.count == 0 {
			continue
		}
		chunk, err := bf.chunk(c.off, c.length)
		if err != nil {
			return err
		}
		if scratch, err = decode(scratch[:0], chunk, int(c.count)); err != nil {
			return err
		}
		for _, v := range scratch {
			fn(v)
		}
	}
	return nil
}

// NumBlocks reports how many block files the store serves.
func (s *Store) NumBlocks() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.files)
}

// Bytes reports the total size of every block file.
func (s *Store) Bytes() int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.bytes
}

// NumSeries reports how many distinct series have persisted data.
func (s *Store) NumSeries() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.agg)
}

// Close closes every block file. The store is unusable afterwards.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	var first error
	for _, bf := range s.files {
		if err := bf.f.Close(); err != nil && first == nil {
			first = err
		}
	}
	s.files = nil
	return first
}
