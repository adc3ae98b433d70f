// Package wal is the write-ahead log of the telemetry storage engine: an
// append-only journal of ingested samples and gap markers, segmented per
// store shard, that makes every acknowledged ingest durable before the
// head's in-memory rings absorb it.
//
// Layout under the WAL root:
//
//	wal/<shard>/<seq>.wal
//
// Each shard directory belongs to one lock-striped store shard, so WAL
// appends ride the shard lock the ingest path already holds — no extra
// synchronization, and append throughput scales with the shard count.
//
// Records are self-describing: every sample and gap record carries its
// series' *absolute index* in that series' ingest stream (sample #0, #1,
// …). Replay therefore needs no coordination with the block store beyond
// "how many leading entries are already persisted": a record whose index
// is below that watermark is a duplicate from an interrupted compaction
// and is skipped, one at the watermark is applied, and ordering across
// segments — even across restarts that changed the shard count — is
// recovered by sorting on (series, index). Crash-anywhere safety falls
// out of this idempotence rather than from a careful deletion protocol.
//
// Framing is length + CRC32C per record. A torn tail (the record being
// written when the process died) fails its checksum and cleanly ends
// replay of that segment; everything acknowledged before it is intact,
// because Append hands each record to the OS before the ingest returns.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"envmon/internal/telemetry/storage"
)

const (
	// magic opens every segment file.
	magic   = "ENVW"
	version = 1

	recSeries = 1
	recSample = 2
	recGap    = 3
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// WAL is one store's journal: a set of per-shard appenders under a common
// root directory.
type WAL struct {
	dir    string
	shards []*Shard
}

// Shard is one shard's appender. Callers must serialize access per shard
// (the store's shard lock does this naturally).
type Shard struct {
	dir       string
	f         *os.File
	seq       uint64
	size      int64
	appended  int64 // bytes ever written, across rotations
	rotations uint64
	nextRef   uint64
	buf       []byte
}

// Create opens fresh segments for the given shard count under dir,
// creating directories as needed. Existing segments are left alone (new
// segments get higher sequence numbers); call Replay first and Reset to
// clear recovered segments.
func Create(dir string, shards int) (*WAL, error) {
	w := &WAL{dir: dir}
	for i := 0; i < shards; i++ {
		sd := filepath.Join(dir, strconv.Itoa(i))
		if err := os.MkdirAll(sd, 0o755); err != nil {
			return nil, fmt.Errorf("wal: %w", err)
		}
		seqs, err := segmentSeqs(sd)
		if err != nil {
			return nil, err
		}
		next := uint64(1)
		if n := len(seqs); n > 0 {
			next = seqs[n-1] + 1
		}
		sh := &Shard{dir: sd, seq: next}
		if err := sh.openSegment(); err != nil {
			w.Close()
			return nil, err
		}
		w.shards = append(w.shards, sh)
	}
	return w, nil
}

// Shard returns the i-th shard appender.
func (w *WAL) Shard(i int) *Shard { return w.shards[i] }

// Sync flushes every shard's segment to stable storage.
func (w *WAL) Sync() error {
	for _, sh := range w.shards {
		if err := sh.Sync(); err != nil {
			return err
		}
	}
	return nil
}

// Close closes every shard's open segment (without deleting anything).
func (w *WAL) Close() error {
	var first error
	for _, sh := range w.shards {
		if sh == nil || sh.f == nil {
			continue
		}
		if err := sh.f.Close(); err != nil && first == nil {
			first = err
		}
		sh.f = nil
	}
	return first
}

func (sh *Shard) openSegment() error {
	name := filepath.Join(sh.dir, fmt.Sprintf("%08d.wal", sh.seq))
	f, err := os.OpenFile(name, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	hdr := make([]byte, 0, 8)
	hdr = append(hdr, magic...)
	hdr = binary.LittleEndian.AppendUint32(hdr, version)
	if _, err := f.Write(hdr); err != nil {
		f.Close()
		return fmt.Errorf("wal: %w", err)
	}
	sh.f = f
	sh.size = int64(len(hdr))
	sh.appended += int64(len(hdr))
	sh.nextRef = 0
	return nil
}

// Size reports the shard's live segment bytes.
func (sh *Shard) Size() int64 { return sh.size }

// Appended reports the total bytes ever written to this shard's journal,
// across rotations — the journaling I/O volume, where Size is the live
// footprint. Synchronized like every other Shard method: by the caller's
// per-shard serialization.
func (sh *Shard) Appended() int64 { return sh.appended }

// Rotations reports how many times this shard's segment has rotated.
func (sh *Shard) Rotations() uint64 { return sh.rotations }

// Sync flushes the open segment to stable storage.
func (sh *Shard) Sync() error {
	if sh.f == nil {
		return nil
	}
	return sh.f.Sync()
}

// Rotate seals a compaction: the open segment's records are all persisted
// in a block now, so it is deleted along with any older segments, and a
// fresh segment begins. Series refs reset — the next append of each
// series re-declares it in the new segment.
func (sh *Shard) Rotate() error {
	if sh.f != nil {
		if err := sh.f.Close(); err != nil {
			return fmt.Errorf("wal: %w", err)
		}
		sh.f = nil
	}
	seqs, err := segmentSeqs(sh.dir)
	if err != nil {
		return err
	}
	for _, seq := range seqs {
		if seq <= sh.seq {
			if err := os.Remove(filepath.Join(sh.dir, fmt.Sprintf("%08d.wal", seq))); err != nil {
				return fmt.Errorf("wal: %w", err)
			}
		}
	}
	sh.seq++
	sh.rotations++
	return sh.openSegment()
}

// AppendSeries declares a series in the current segment and returns the
// ref later sample/gap records use. Refs are segment-scoped.
func (sh *Shard) AppendSeries(key storage.SeriesKey, unit string) (uint64, error) {
	sh.nextRef++
	ref := sh.nextRef
	p := sh.begin()
	p = append(p, recSeries)
	p = binary.AppendUvarint(p, ref)
	p = appendString(p, key.Node)
	p = appendString(p, key.Backend)
	p = appendString(p, key.Domain)
	p = appendString(p, unit)
	return ref, sh.commit(p)
}

// AppendSample journals one sample: ref from AppendSeries, idx the
// sample's absolute index in its series' stream.
func (sh *Shard) AppendSample(ref, idx uint64, t time.Duration, v float64) error {
	p := sh.begin()
	p = append(p, recSample)
	p = binary.AppendUvarint(p, ref)
	p = binary.AppendUvarint(p, idx)
	p = binary.AppendVarint(p, int64(t))
	p = binary.LittleEndian.AppendUint64(p, math.Float64bits(v))
	return sh.commit(p)
}

// AppendGap journals one gap marker at absolute gap index idx.
func (sh *Shard) AppendGap(ref, idx uint64, t time.Duration) error {
	p := sh.begin()
	p = append(p, recGap)
	p = binary.AppendUvarint(p, ref)
	p = binary.AppendUvarint(p, idx)
	p = binary.AppendVarint(p, int64(t))
	return sh.commit(p)
}

// begin starts a record in the reusable scratch buffer, leaving room for
// the 8-byte frame header, so steady-state appends allocate nothing and
// each record reaches the OS in a single write.
func (sh *Shard) begin() []byte {
	if cap(sh.buf) < 64 {
		sh.buf = make([]byte, 0, 256)
	}
	sh.buf = sh.buf[:8]
	return sh.buf
}

func (sh *Shard) commit(p []byte) error {
	sh.buf = p[:0] // keep a grown buffer for reuse
	payload := p[8:]
	binary.LittleEndian.PutUint32(p[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(p[4:8], crc32.Checksum(payload, castagnoli))
	n, err := sh.f.Write(p)
	sh.size += int64(n)
	sh.appended += int64(n)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	return nil
}

func appendString(p []byte, s string) []byte {
	p = binary.AppendUvarint(p, uint64(len(s)))
	return append(p, s...)
}

// Sample is one replayed sample record, resolved to its series.
type Sample struct {
	Key   storage.SeriesKey
	Unit  string
	Index uint64
	T     time.Duration
	V     float64
}

// Gap is one replayed gap record, resolved to its series.
type Gap struct {
	Key   storage.SeriesKey
	Unit  string
	Index uint64
	T     time.Duration
}

// Replay reads every shard directory under dir and returns all decodable
// sample and gap records, sorted by (series, index) — the order they can
// be applied in regardless of which shard layout wrote them. Segments end
// silently at the first torn or corrupt record (the crash tail); wholly
// unreadable files are an error.
func Replay(dir string) ([]Sample, []Gap, error) {
	entries, err := os.ReadDir(dir)
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil, nil
	}
	if err != nil {
		return nil, nil, fmt.Errorf("wal: %w", err)
	}
	var samples []Sample
	var gaps []Gap
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		sd := filepath.Join(dir, e.Name())
		seqs, err := segmentSeqs(sd)
		if err != nil {
			return nil, nil, err
		}
		for _, seq := range seqs {
			name := filepath.Join(sd, fmt.Sprintf("%08d.wal", seq))
			if samples, gaps, err = replaySegment(name, samples, gaps); err != nil {
				return nil, nil, err
			}
		}
	}
	sort.SliceStable(samples, func(i, j int) bool {
		if samples[i].Key != samples[j].Key {
			return storage.KeyLess(samples[i].Key, samples[j].Key)
		}
		return samples[i].Index < samples[j].Index
	})
	sort.SliceStable(gaps, func(i, j int) bool {
		if gaps[i].Key != gaps[j].Key {
			return storage.KeyLess(gaps[i].Key, gaps[j].Key)
		}
		return gaps[i].Index < gaps[j].Index
	})
	return samples, gaps, nil
}

type seriesDecl struct {
	key  storage.SeriesKey
	unit string
}

func replaySegment(name string, samples []Sample, gaps []Gap) ([]Sample, []Gap, error) {
	data, err := os.ReadFile(name)
	if err != nil {
		return samples, gaps, fmt.Errorf("wal: %w", err)
	}
	if len(data) < 8 || string(data[:4]) != magic {
		return samples, gaps, fmt.Errorf("wal: %s: bad segment header", name)
	}
	if v := binary.LittleEndian.Uint32(data[4:8]); v != version {
		return samples, gaps, fmt.Errorf("wal: %s: unsupported version %d", name, v)
	}
	refs := map[uint64]seriesDecl{}
	off := 8
	for off+8 <= len(data) {
		plen := int(binary.LittleEndian.Uint32(data[off:]))
		sum := binary.LittleEndian.Uint32(data[off+4:])
		if plen <= 0 || off+8+plen > len(data) {
			break // torn tail
		}
		payload := data[off+8 : off+8+plen]
		if crc32.Checksum(payload, castagnoli) != sum {
			break // corrupt tail
		}
		off += 8 + plen
		if err := decodeRecord(payload, refs, &samples, &gaps); err != nil {
			return samples, gaps, fmt.Errorf("wal: %s: %w", name, err)
		}
	}
	return samples, gaps, nil
}

func decodeRecord(p []byte, refs map[uint64]seriesDecl, samples *[]Sample, gaps *[]Gap) error {
	if len(p) == 0 {
		return io.ErrUnexpectedEOF
	}
	typ, p := p[0], p[1:]
	ref, n := binary.Uvarint(p)
	if n <= 0 {
		return io.ErrUnexpectedEOF
	}
	p = p[n:]
	switch typ {
	case recSeries:
		var d seriesDecl
		var err error
		if d.key.Node, p, err = readString(p); err != nil {
			return err
		}
		if d.key.Backend, p, err = readString(p); err != nil {
			return err
		}
		if d.key.Domain, p, err = readString(p); err != nil {
			return err
		}
		if d.unit, _, err = readString(p); err != nil {
			return err
		}
		refs[ref] = d
	case recSample:
		d, ok := refs[ref]
		if !ok {
			return fmt.Errorf("sample record references undeclared series %d", ref)
		}
		idx, n := binary.Uvarint(p)
		if n <= 0 {
			return io.ErrUnexpectedEOF
		}
		p = p[n:]
		t, n := binary.Varint(p)
		if n <= 0 {
			return io.ErrUnexpectedEOF
		}
		p = p[n:]
		if len(p) < 8 {
			return io.ErrUnexpectedEOF
		}
		*samples = append(*samples, Sample{
			Key: d.key, Unit: d.unit, Index: idx,
			T: time.Duration(t), V: math.Float64frombits(binary.LittleEndian.Uint64(p)),
		})
	case recGap:
		d, ok := refs[ref]
		if !ok {
			return fmt.Errorf("gap record references undeclared series %d", ref)
		}
		idx, n := binary.Uvarint(p)
		if n <= 0 {
			return io.ErrUnexpectedEOF
		}
		p = p[n:]
		t, n := binary.Varint(p)
		if n <= 0 {
			return io.ErrUnexpectedEOF
		}
		*gaps = append(*gaps, Gap{Key: d.key, Unit: d.unit, Index: idx, T: time.Duration(t)})
	default:
		return fmt.Errorf("unknown record type %d", typ)
	}
	return nil
}

func readString(p []byte) (string, []byte, error) {
	l, n := binary.Uvarint(p)
	if n <= 0 || uint64(len(p)-n) < l {
		return "", nil, io.ErrUnexpectedEOF
	}
	return string(p[n : n+int(l)]), p[n+int(l):], nil
}

// Reset deletes every segment under dir (all shard subdirectories). The
// engine calls this once recovery has re-persisted everything the journal
// held.
func Reset(dir string) error {
	entries, err := os.ReadDir(dir)
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		if err := os.RemoveAll(filepath.Join(dir, e.Name())); err != nil {
			return fmt.Errorf("wal: %w", err)
		}
	}
	return nil
}

func segmentSeqs(dir string) ([]uint64, error) {
	entries, err := os.ReadDir(dir)
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	var seqs []uint64
	for _, e := range entries {
		name := e.Name()
		if !strings.HasSuffix(name, ".wal") {
			continue
		}
		seq, err := strconv.ParseUint(strings.TrimSuffix(name, ".wal"), 10, 64)
		if err != nil {
			continue
		}
		seqs = append(seqs, seq)
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	return seqs, nil
}
