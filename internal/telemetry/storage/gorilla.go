package storage

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"time"
)

// This file holds the chunk codecs of the block layer.
//
// Raw points use the Gorilla encoding (Pelkonen et al., "Gorilla: a fast,
// scalable, in-memory time series database", VLDB 2015), adapted to
// nanosecond timestamps: delta-of-delta timestamps in widening bit
// buckets, and XOR-compressed values that reuse the previous sample's
// meaningful-bit window when it still fits. A steady poller (constant
// interval, slowly moving value) costs ~1–2 bits per timestamp and a few
// bits per value — against 16 bytes per raw point.
//
// Rollup buckets and gap markers are already 1–2 orders of magnitude
// sparser than raw points, so they use a plain byte-aligned varint
// encoding: delta timestamps, raw float64 bits.

// EncodePoints appends the Gorilla-compressed chunk for pts to dst and
// returns the extended slice. Points must be in ingest order
// (non-decreasing T). The chunk is self-contained; DecodePoints needs
// only the byte slice and the point count.
func EncodePoints(dst []byte, pts []Point) []byte {
	if len(pts) == 0 {
		return dst
	}
	var w bitWriter
	w.buf = dst[len(dst):len(dst):cap(dst)] // reuse dst's tail capacity if any
	// First point: raw 64-bit timestamp and value.
	w.writeBits(uint64(pts[0].T), 64)
	w.writeBits(math.Float64bits(pts[0].V), 64)
	prevT := int64(pts[0].T)
	prevDelta := int64(0)
	prevV := math.Float64bits(pts[0].V)
	prevLead, prevSig := uint(0), uint(0) // valid when prevSig > 0
	for _, p := range pts[1:] {
		t := int64(p.T)
		delta := t - prevT
		dod := delta - prevDelta
		switch {
		case dod == 0:
			w.writeBit(0)
		case dod >= -(1<<15) && dod < 1<<15:
			w.writeBits(0b10, 2)
			w.writeBits(uint64(dod)&(1<<16-1), 16)
		case dod >= -(1<<31) && dod < 1<<31:
			w.writeBits(0b110, 3)
			w.writeBits(uint64(dod)&(1<<32-1), 32)
		default:
			w.writeBits(0b111, 3)
			w.writeBits(uint64(dod), 64)
		}
		prevT, prevDelta = t, delta

		v := math.Float64bits(p.V)
		xor := v ^ prevV
		prevV = v
		if xor == 0 {
			w.writeBit(0)
			continue
		}
		w.writeBit(1)
		lead := uint(bits.LeadingZeros64(xor))
		if lead > 31 {
			lead = 31 // 5-bit field; extra leading zeros ride in the payload
		}
		trail := uint(bits.TrailingZeros64(xor))
		sig := 64 - lead - trail
		if prevSig > 0 && lead >= prevLead && lead+sig <= prevLead+prevSig {
			// The previous window still covers every meaningful bit.
			w.writeBit(0)
			w.writeBits(xor>>(64-prevLead-prevSig), prevSig)
			continue
		}
		w.writeBit(1)
		w.writeBits(uint64(lead), 5)
		w.writeBits(uint64(sig-1), 6) // sig in 1..64 stored as 0..63
		w.writeBits(xor>>trail, sig)
		prevLead, prevSig = lead, sig
	}
	return append(dst, w.bytes()...)
}

// DecodePoints appends the n points of a chunk produced by EncodePoints
// to dst and returns the extended slice. A non-positive n appends nothing.
func DecodePoints(dst []Point, chunk []byte, n int) ([]Point, error) {
	if n <= 0 {
		return dst, nil
	}
	r := newBitReader(chunk)
	t0, err := r.readBits(64)
	if err != nil {
		return dst, err
	}
	v0, err := r.readBits(64)
	if err != nil {
		return dst, err
	}
	prevT := int64(t0)
	prevDelta := int64(0)
	prevV := v0
	prevLead, prevSig := uint(0), uint(0)
	dst = append(dst, Point{T: time.Duration(prevT), V: math.Float64frombits(prevV)})
	for i := 1; i < n; i++ {
		// Timestamp: read the delta-of-delta bucket selector.
		var dod int64
		b, err := r.readBit()
		if err != nil {
			return dst, err
		}
		if b == 1 {
			b2, err := r.readBit()
			if err != nil {
				return dst, err
			}
			if b2 == 0 {
				u, err := r.readBits(16)
				if err != nil {
					return dst, err
				}
				dod = int64(int16(u))
			} else {
				b3, err := r.readBit()
				if err != nil {
					return dst, err
				}
				width := uint(64)
				if b3 == 0 {
					width = 32
				}
				u, err := r.readBits(width)
				if err != nil {
					return dst, err
				}
				if width == 32 {
					dod = int64(int32(u))
				} else {
					dod = int64(u)
				}
			}
		}
		prevDelta += dod
		prevT += prevDelta

		// Value: XOR chain.
		b, err = r.readBit()
		if err != nil {
			return dst, err
		}
		if b == 1 {
			ctrl, err := r.readBit()
			if err != nil {
				return dst, err
			}
			if ctrl == 1 {
				lead, err := r.readBits(5)
				if err != nil {
					return dst, err
				}
				sig, err := r.readBits(6)
				if err != nil {
					return dst, err
				}
				prevLead, prevSig = uint(lead), uint(sig)+1
			} else if prevSig == 0 {
				return dst, fmt.Errorf("storage: point chunk reuses an unset XOR window")
			}
			mant, err := r.readBits(prevSig)
			if err != nil {
				return dst, err
			}
			prevV ^= mant << (64 - prevLead - prevSig)
		}
		dst = append(dst, Point{T: time.Duration(prevT), V: math.Float64frombits(prevV)})
	}
	return dst, nil
}

// EncodeBuckets appends the chunk for a run of sealed rollup buckets:
// delta-encoded varint starts, varint counts, raw float64 statistics.
func EncodeBuckets(dst []byte, bs []Bucket) []byte {
	prev := int64(0)
	for i, b := range bs {
		d := int64(b.Start) - prev
		if i == 0 {
			d = int64(b.Start)
		}
		prev = int64(b.Start)
		dst = binary.AppendVarint(dst, d)
		dst = binary.AppendUvarint(dst, uint64(b.Count))
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(b.Min))
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(b.Max))
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(b.Sum))
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(b.Last))
	}
	return dst
}

// DecodeBuckets appends the n buckets of an EncodeBuckets chunk to dst.
func DecodeBuckets(dst []Bucket, chunk []byte, n int) ([]Bucket, error) {
	off := 0
	prev := int64(0)
	for i := 0; i < n; i++ {
		d, sz := binary.Varint(chunk[off:])
		if sz <= 0 {
			return dst, fmt.Errorf("storage: bucket chunk truncated at bucket %d", i)
		}
		off += sz
		prev += d
		cnt, sz := binary.Uvarint(chunk[off:])
		if sz <= 0 {
			return dst, fmt.Errorf("storage: bucket chunk truncated at bucket %d", i)
		}
		off += sz
		if off+32 > len(chunk) {
			return dst, fmt.Errorf("storage: bucket chunk truncated at bucket %d", i)
		}
		b := Bucket{
			Start: time.Duration(prev),
			Count: int(cnt),
			Min:   math.Float64frombits(binary.LittleEndian.Uint64(chunk[off:])),
			Max:   math.Float64frombits(binary.LittleEndian.Uint64(chunk[off+8:])),
			Sum:   math.Float64frombits(binary.LittleEndian.Uint64(chunk[off+16:])),
			Last:  math.Float64frombits(binary.LittleEndian.Uint64(chunk[off+24:])),
		}
		off += 32
		dst = append(dst, b)
	}
	return dst, nil
}

// EncodeGaps appends the chunk for a run of gap markers: the first
// instant as a signed varint, then unsigned varint deltas (gap times are
// non-decreasing per series).
func EncodeGaps(dst []byte, gaps []time.Duration) []byte {
	prev := int64(0)
	for i, g := range gaps {
		if i == 0 {
			dst = binary.AppendVarint(dst, int64(g))
		} else {
			dst = binary.AppendUvarint(dst, uint64(int64(g)-prev))
		}
		prev = int64(g)
	}
	return dst
}

// DecodeGaps appends the n gap markers of an EncodeGaps chunk to dst.
func DecodeGaps(dst []time.Duration, chunk []byte, n int) ([]time.Duration, error) {
	if n <= 0 {
		return dst, nil
	}
	first, sz := binary.Varint(chunk)
	if sz <= 0 {
		return dst, fmt.Errorf("storage: gap chunk truncated at gap 0")
	}
	off := sz
	prev := first
	dst = append(dst, time.Duration(first))
	for i := 1; i < n; i++ {
		d, sz := binary.Uvarint(chunk[off:])
		if sz <= 0 {
			return dst, fmt.Errorf("storage: gap chunk truncated at gap %d", i)
		}
		off += sz
		prev += int64(d)
		dst = append(dst, time.Duration(prev))
	}
	return dst, nil
}
