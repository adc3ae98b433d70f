package telemetry

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"reflect"
	"strconv"
	"testing"
	"time"
)

// modelOpts are capacities small enough that every compaction trigger
// fires within a few steps: raw-ring, gap-ring and rollup-ring pressure,
// and the WAL segment budget.
func modelOpts(shards int) Options {
	return Options{Shards: shards, RawCapacity: 8, RollupCapacity: 2, GapCapacity: 4,
		WALSegmentBytes: 512}
}

// modelSeeds are the fixed sequences the model test replays; CHAOS_SEED
// replaces them with one seed, the way the chaos tests take theirs.
func modelSeeds(t *testing.T) []int64 {
	if s := os.Getenv("CHAOS_SEED"); s != "" {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			t.Fatalf("bad CHAOS_SEED %q: %v", s, err)
		}
		return []int64{v}
	}
	return []int64{1, 2, 3, 1337}
}

// TestModelPersistentMatchesUnboundedMemory drives a seeded random
// sequence of ingests, gap markers, out-of-order rejections, flushes and
// close-then-reopen at a different shard count against a persistent store
// with tiny rings, and after every step compares its whole read surface
// with an unbounded memory-only store fed the same operations. This is
// the count-seam contract: blocks plus rings serve exactly the ingested
// stream, whatever was compacted, flushed or recovered.
func TestModelPersistentMatchesUnboundedMemory(t *testing.T) {
	steps := 400
	if testing.Short() {
		steps = 250
	}
	for _, seed := range modelSeeds(t) {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			runModel(t, seed, steps)
		})
	}
}

func runModel(t *testing.T, seed int64, steps int) {
	rng := rand.New(rand.NewSource(seed))
	keys := []SeriesKey{
		{Node: "n0", Backend: "MSR", Domain: "Total Power"},
		{Node: "n0", Backend: "MSR", Domain: "DDR Power"},
		{Node: "n1", Backend: "NVML", Domain: "Total Power"},
		{Node: "n2", Backend: "EMON", Domain: "Total Power"},
	}
	// Per-key newest sample and gap instants, so the generator knows which
	// times are in order; the have flags say whether one was accepted yet.
	lastT := make([]time.Duration, len(keys))
	lastG := make([]time.Duration, len(keys))
	haveT := make([]bool, len(keys))
	haveG := make([]bool, len(keys))
	// The generator switches mode every 25 steps, so each compaction
	// trigger gets its turn: mixed cadences open buckets at every rollup
	// level (rollup-ring pressure); a burst packs samples milliseconds
	// apart into one bucket (raw-ring and WAL-budget pressure); a gap
	// storm floods one key with markers (gap-ring pressure).
	const (
		mixed = iota
		burst
		gapStorm
	)
	mode, focus := mixed, 0
	step := func() time.Duration {
		if mode != mixed {
			return time.Duration(rng.Intn(3)) * time.Millisecond
		}
		switch r := rng.Intn(20); {
		case r < 4:
			return 0 // equal timestamps are accepted
		case r < 15:
			return time.Duration(1+rng.Intn(900)) * time.Millisecond
		case r < 18:
			return time.Duration(1+rng.Intn(15)) * time.Second
		default:
			return time.Duration(55+rng.Intn(70)) * time.Second
		}
	}

	dir := t.TempDir()
	shards := 1 + rng.Intn(4)
	ps, err := Open(dir, modelOpts(shards))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { ps.Close() }()
	ref := New(Options{Shards: 1, RawCapacity: 1 << 16, RollupCapacity: 1 << 12, GapCapacity: 1 << 12})

	var log []string
	var compactions uint64 // across every reopen
	fail := func(format string, args ...any) {
		t.Helper()
		tail := log
		if len(tail) > 12 {
			tail = tail[len(tail)-12:]
		}
		t.Fatalf("seed %d step %d: %s\nlast ops:\n  %s", seed, len(log), fmt.Sprintf(format, args...),
			fmt.Sprint(tail))
	}
	same := func(op string, perr, rerr error) {
		t.Helper()
		if !errors.Is(perr, rerr) {
			fail("%s: persistent err %v, reference err %v", op, perr, rerr)
		}
	}

	for i := 0; i < steps; i++ {
		if i%25 == 0 {
			mode, focus = rng.Intn(3), rng.Intn(len(keys))
		}
		k := rng.Intn(len(keys))
		r := rng.Intn(100)
		switch {
		case mode == burst && r < 93:
			r %= 60 // in-order samples, and flush or reopen as usual
		case mode == gapStorm && r < 93:
			k, r = focus, 64+r%18 // in-order gaps on one key
		}
		key := keys[k]
		var op string
		switch {
		case r < 60: // in-order sample
			ts := lastT[k] + step()
			if !haveT[k] {
				ts = time.Duration(rng.Intn(3000)) * time.Millisecond
			}
			v := 100 + float64(rng.Intn(4000))/8
			op = fmt.Sprintf("ingest %s %v %v", key.Domain+"@"+key.Node, ts, v)
			perr, rerr := ps.Ingest(key, "W", ts, v), ref.Ingest(key, "W", ts, v)
			same(op, perr, rerr)
			if perr != nil {
				fail("%s: %v", op, perr)
			}
			lastT[k], haveT[k] = ts, true
		case r < 64: // out-of-order or negative sample: rejected by both
			ts := -time.Millisecond
			if haveT[k] && lastT[k] > 0 && rng.Intn(2) == 0 {
				ts = lastT[k] - time.Duration(1+rng.Int63n(int64(lastT[k])))
			}
			op = fmt.Sprintf("ingest-ooo %s %v", key.Domain+"@"+key.Node, ts)
			perr, rerr := ps.Ingest(key, "W", ts, 1), ref.Ingest(key, "W", ts, 1)
			same(op, perr, rerr)
			if !errors.Is(perr, ErrOutOfOrder) {
				fail("%s: err %v, want ErrOutOfOrder", op, perr)
			}
		case r < 82: // in-order gap marker
			ts := lastG[k] + step()
			if !haveG[k] {
				ts = time.Duration(rng.Intn(3000)) * time.Millisecond
			}
			op = fmt.Sprintf("gap %s %v", key.Domain+"@"+key.Node, ts)
			perr, rerr := ps.IngestGap(key, "W", ts), ref.IngestGap(key, "W", ts)
			same(op, perr, rerr)
			if perr != nil {
				fail("%s: %v", op, perr)
			}
			lastG[k], haveG[k] = ts, true
		case r < 85: // out-of-order or negative gap: rejected by both
			ts := -time.Millisecond
			if haveG[k] && lastG[k] > 0 && rng.Intn(2) == 0 {
				ts = lastG[k] - time.Duration(1+rng.Int63n(int64(lastG[k])))
			}
			op = fmt.Sprintf("gap-ooo %s %v", key.Domain+"@"+key.Node, ts)
			perr, rerr := ps.IngestGap(key, "W", ts), ref.IngestGap(key, "W", ts)
			same(op, perr, rerr)
			if !errors.Is(perr, ErrOutOfOrder) {
				fail("%s: err %v, want ErrOutOfOrder", op, perr)
			}
		case r < 93:
			op = "flush"
			if err := ps.Flush(); err != nil {
				fail("flush: %v", err)
			}
		default:
			next := 1 + rng.Intn(4)
			if next == shards {
				next = shards%4 + 1
			}
			op = fmt.Sprintf("reopen shards %d->%d", shards, next)
			compactions += ps.StorageStats().Compactions
			ps.Close()
			if ps, err = Open(dir, modelOpts(next)); err != nil {
				fail("%s: %v", op, err)
			}
			if lost := ps.StorageStats().Recovery.Lost; lost != 0 {
				fail("%s: recovery lost %d records", op, lost)
			}
			shards = next
		}
		log = append(log, op)
		compareModel(t, ps, ref, rng, fail)
	}
	if compactions+ps.StorageStats().Compactions == 0 {
		t.Fatalf("seed %d: no compaction ran; the capacities no longer exercise the seam", seed)
	}
}

// compareModel checks the persistent store's read surface against the
// reference: every resolution over the whole history and over a random
// window, plus the series listing with the persistence-only field masked.
func compareModel(t *testing.T, ps, ref *Store, rng *rand.Rand, fail func(string, ...any)) {
	t.Helper()
	from := time.Duration(rng.Intn(200)) * time.Second
	to := from + time.Duration(1+rng.Intn(300))*time.Second
	for _, res := range []Resolution{Raw, Res1s, Res10s, Res60s} {
		for _, q := range []Query{
			{Resolution: res, Aggregate: AggMean},
			{Resolution: res, Aggregate: AggMax, From: from, To: to},
		} {
			if got, want := ps.Query(q), ref.Query(q); !reflect.DeepEqual(got, want) {
				fail("query %+v diverges:\n got  %+v\n want %+v", q, got, want)
			}
		}
	}
	got, want := ps.Series(), ref.Series()
	for i := range got {
		if got[i].Persisted > got[i].Samples {
			fail("series %v: persisted %d of %d samples", got[i].Key, got[i].Persisted, got[i].Samples)
		}
		got[i].Persisted = 0
	}
	if !reflect.DeepEqual(got, want) {
		fail("Series() diverges:\n got  %+v\n want %+v", got, want)
	}
}
