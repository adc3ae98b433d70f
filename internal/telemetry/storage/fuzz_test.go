package storage

import (
	"encoding/binary"
	"math"
	"testing"
	"time"
)

// The block decoders read bytes this process did not write: a block file
// from an earlier run, or a damaged one. Each fuzz target feeds arbitrary
// (chunk, n) pairs to a decoder and checks that it never panics and never
// appends more than n items, then reads the same bytes as a slice of
// items, encodes it, and checks that the chunk decodes back to exactly
// that slice. Seed corpora live in testdata/fuzz/<target>.

// word reads the i-th little-endian 8-byte word of p.
func word(p []byte, i int) uint64 { return binary.LittleEndian.Uint64(p[8*i:]) }

func FuzzDecodePoints(f *testing.F) {
	f.Fuzz(func(t *testing.T, chunk []byte, n int) {
		got, _ := DecodePoints(nil, chunk, n)
		if len(got) > max(n, 0) {
			t.Fatalf("decoded %d points from a chunk of %d", len(got), n)
		}

		pts := make([]Point, len(chunk)/16)
		for i := range pts {
			pts[i] = Point{T: time.Duration(word(chunk, 2*i)), V: math.Float64frombits(word(chunk, 2*i+1))}
		}
		back, err := DecodePoints(nil, EncodePoints(nil, pts), len(pts))
		if err != nil {
			t.Fatalf("round trip of %d points: %v", len(pts), err)
		}
		if len(back) != len(pts) {
			t.Fatalf("round trip: %d points, want %d", len(back), len(pts))
		}
		for i := range pts {
			if back[i].T != pts[i].T || math.Float64bits(back[i].V) != math.Float64bits(pts[i].V) {
				t.Fatalf("round trip point %d = %+v, want %+v", i, back[i], pts[i])
			}
		}
	})
}

func FuzzDecodeBuckets(f *testing.F) {
	f.Fuzz(func(t *testing.T, chunk []byte, n int) {
		got, _ := DecodeBuckets(nil, chunk, n)
		if len(got) > max(n, 0) {
			t.Fatalf("decoded %d buckets from a chunk of %d", len(got), n)
		}

		bs := make([]Bucket, len(chunk)/48)
		for i := range bs {
			bs[i] = Bucket{
				Start: time.Duration(word(chunk, 6*i)),
				Count: int(word(chunk, 6*i+1)),
				Min:   math.Float64frombits(word(chunk, 6*i+2)),
				Max:   math.Float64frombits(word(chunk, 6*i+3)),
				Sum:   math.Float64frombits(word(chunk, 6*i+4)),
				Last:  math.Float64frombits(word(chunk, 6*i+5)),
			}
		}
		back, err := DecodeBuckets(nil, EncodeBuckets(nil, bs), len(bs))
		if err != nil {
			t.Fatalf("round trip of %d buckets: %v", len(bs), err)
		}
		if len(back) != len(bs) {
			t.Fatalf("round trip: %d buckets, want %d", len(back), len(bs))
		}
		for i, b := range bs {
			g := back[i]
			if g.Start != b.Start || g.Count != b.Count ||
				math.Float64bits(g.Min) != math.Float64bits(b.Min) ||
				math.Float64bits(g.Max) != math.Float64bits(b.Max) ||
				math.Float64bits(g.Sum) != math.Float64bits(b.Sum) ||
				math.Float64bits(g.Last) != math.Float64bits(b.Last) {
				t.Fatalf("round trip bucket %d = %+v, want %+v", i, g, b)
			}
		}
	})
}

func FuzzDecodeGaps(f *testing.F) {
	f.Fuzz(func(t *testing.T, chunk []byte, n int) {
		got, _ := DecodeGaps(nil, chunk, n)
		if len(got) > max(n, 0) {
			t.Fatalf("decoded %d gaps from a chunk of %d", len(got), n)
		}

		gaps := make([]time.Duration, len(chunk)/8)
		for i := range gaps {
			gaps[i] = time.Duration(word(chunk, i))
		}
		back, err := DecodeGaps(nil, EncodeGaps(nil, gaps), len(gaps))
		if err != nil {
			t.Fatalf("round trip of %d gaps: %v", len(gaps), err)
		}
		if len(back) != len(gaps) {
			t.Fatalf("round trip: %d gaps, want %d", len(back), len(gaps))
		}
		for i := range gaps {
			if back[i] != gaps[i] {
				t.Fatalf("round trip gap %d = %v, want %v", i, back[i], gaps[i])
			}
		}
	})
}
