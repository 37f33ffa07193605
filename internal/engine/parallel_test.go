package engine

import (
	"fmt"
	"reflect"
	"testing"

	"bytecard/internal/datagen"
	"bytecard/internal/types"
)

// TestParallelMatchesSequential is the tentpole invariant: for every query
// shape the executor supports, four workers must produce byte-identical
// result rows and charge exactly the same block I/O as one worker, whose
// operators run as serial loops.
func TestParallelMatchesSequential(t *testing.T) {
	datasets := map[string]*datagen.Dataset{
		"imdb":  datagen.IMDB(datagen.Config{Scale: 0.2, Seed: 31}),
		"stats": datagen.STATS(datagen.Config{Scale: 0.1, Seed: 32}),
	}
	queries := map[string][]string{
		"imdb": {
			"SELECT COUNT(*) FROM title",
			"SELECT COUNT(*) FROM title WHERE title.production_year > 2005",
			"SELECT COUNT(*), SUM(ci.person_id), MIN(ci.person_id), MAX(ci.person_id), AVG(ci.person_id) FROM cast_info ci WHERE ci.role_id < 4",
			"SELECT COUNT(*) FROM title t, cast_info ci WHERE ci.movie_id = t.id AND t.production_year > 1995",
			"SELECT t.kind_id, COUNT(*), SUM(t.production_year) FROM title t GROUP BY t.kind_id",
			"SELECT COUNT(DISTINCT ci.person_id) FROM cast_info ci WHERE ci.role_id = 1",
			"SELECT t.kind_id, COUNT(*), COUNT(DISTINCT ci.role_id) FROM title t, cast_info ci WHERE ci.movie_id = t.id GROUP BY t.kind_id",
		},
		"stats": {
			"SELECT COUNT(*) FROM votes WHERE votes.vote_type = 2 OR votes.creation_year > 2012",
			"SELECT COUNT(*) FROM posts p, users u WHERE p.owner_user_id = u.id AND u.reputation > 50",
			"SELECT c.creation_year, COUNT(*), SUM(c.score), MIN(c.score), MAX(c.score) FROM comments c GROUP BY c.creation_year",
			"SELECT COUNT(*) FROM posts p, comments c, users u WHERE c.post_id = p.id AND p.owner_user_id = u.id AND u.reputation > 100",
		},
	}
	for name, ds := range datasets {
		for _, sql := range queries[name] {
			t.Run(name+"/"+sql, func(t *testing.T) {
				seq := New(ds.DB, ds.Schema, HeuristicEstimator{})
				seq.Parallelism = 1
				par := New(ds.DB, ds.Schema, HeuristicEstimator{})
				par.Parallelism = 4

				rs, err := seq.Run(sql)
				if err != nil {
					t.Fatal(err)
				}
				rp, err := par.Run(sql)
				if err != nil {
					t.Fatal(err)
				}
				if rs.Metrics.ParallelWorkers != 1 || rp.Metrics.ParallelWorkers != 4 {
					t.Errorf("ParallelWorkers = %d/%d, want 1/4",
						rs.Metrics.ParallelWorkers, rp.Metrics.ParallelWorkers)
				}
				if !reflect.DeepEqual(rs.Rows, rp.Rows) {
					t.Fatalf("rows diverge:\nseq: %v\npar: %v", rs.Rows, rp.Rows)
				}
				if a, b := rs.Metrics.IO.BlocksRead(), rp.Metrics.IO.BlocksRead(); a != b {
					t.Errorf("BlocksRead diverge: seq %d, par %d", a, b)
				}
				if rs.Metrics.ActualFinalRows != rp.Metrics.ActualFinalRows {
					t.Errorf("ActualFinalRows diverge: %d vs %d",
						rs.Metrics.ActualFinalRows, rp.Metrics.ActualFinalRows)
				}
			})
		}
	}
}

// TestParallelForcedReaders re-runs a filter query under both pinned reader
// strategies so the one-pass and staged scan bodies are each exercised
// explicitly at one and four workers.
func TestParallelForcedReaders(t *testing.T) {
	ds := datagen.IMDB(datagen.Config{Scale: 0.2, Seed: 33})
	sql := "SELECT COUNT(*) FROM cast_info ci WHERE ci.role_id = 2 AND ci.person_id < 500"
	for _, strategy := range []string{"single-stage", "multi-stage"} {
		seq := New(ds.DB, ds.Schema, HeuristicEstimator{})
		seq.Parallelism = 1
		seq.ForceReader = strategy
		par := New(ds.DB, ds.Schema, HeuristicEstimator{})
		par.Parallelism = 4
		par.ForceReader = strategy
		rs, err := seq.Run(sql)
		if err != nil {
			t.Fatal(err)
		}
		rp, err := par.Run(sql)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(rs.Rows, rp.Rows) {
			t.Errorf("%s: rows diverge: %v vs %v", strategy, rs.Rows, rp.Rows)
		}
		if a, b := rs.Metrics.IO.BlocksRead(), rp.Metrics.IO.BlocksRead(); a != b {
			t.Errorf("%s: BlocksRead diverge: seq %d, par %d", strategy, a, b)
		}
	}
}

func TestKeysEqualRaggedLengths(t *testing.T) {
	a := []types.Datum{types.Int(1), types.Int(2)}
	b := []types.Datum{types.Int(1)}
	if keysEqual(a, b) || keysEqual(b, a) {
		t.Error("ragged key tuples must compare unequal")
	}
	if keysEqual(a, []types.Datum{types.Int(1), types.Int(3)}) {
		t.Error("differing tuples must compare unequal")
	}
	if !keysEqual(a, []types.Datum{types.Int(1), types.Int(2)}) {
		t.Error("equal tuples must compare equal")
	}
	if !keysEqual(nil, []types.Datum{}) {
		t.Error("empty tuples are equal regardless of nil-ness")
	}
}

// TestDistinctSetCollisions is the regression test for the COUNT DISTINCT
// accumulator: two different key tuples forced onto the same 64-bit hash
// must count as two distinct values, and re-adding either must not.
func TestDistinctSetCollisions(t *testing.T) {
	s := newDistinctSet()
	const h = uint64(0xdeadbeef)
	s.add(h, []types.Datum{types.Int(1)})
	s.add(h, []types.Datum{types.Int(2)}) // colliding hash, different datum
	s.add(h, []types.Datum{types.Int(1)}) // duplicate
	s.add(h, []types.Datum{types.Str("1")})
	if s.n != 3 {
		t.Errorf("distinct count = %d, want 3 (collisions must not dedup different datums)", s.n)
	}
	// The inserted keys must be copies: mutating the caller's buffer must
	// not corrupt the set.
	buf := []types.Datum{types.Int(7)}
	s.add(h, buf)
	buf[0] = types.Int(8)
	s.add(h, buf)
	if s.n != 5 {
		t.Errorf("distinct count = %d, want 5 (keys must be copied on insert)", s.n)
	}
}

func TestDistinctSetMerge(t *testing.T) {
	a, b := newDistinctSet(), newDistinctSet()
	a.add(1, []types.Datum{types.Int(10)})
	a.add(2, []types.Datum{types.Int(20)})
	b.add(2, []types.Datum{types.Int(20)}) // shared member
	b.add(2, []types.Datum{types.Int(21)}) // colliding with it
	b.add(3, []types.Datum{types.Int(30)})
	a.merge(b)
	if a.n != 4 {
		t.Errorf("merged distinct count = %d, want 4", a.n)
	}
}

// TestAggTableAllCollidingHashes drives the aggregation table with every
// key hashed to the same value, across enough inserts to force several
// resizes — lookups must still resolve each key to its own group.
func TestAggTableAllCollidingHashes(t *testing.T) {
	tab := newAggTable(1)
	aggs := []AggSpec{{Kind: AggCountStar}}
	const n = 200
	for round := 0; round < 3; round++ {
		for i := 0; i < n; i++ {
			key := []types.Datum{types.Int(int64(i))}
			accs := tab.lookupHash(0, key, func() []aggAcc { return newAccs(aggs) })
			accs[0].count++
		}
	}
	if tab.used != n {
		t.Fatalf("groups = %d, want %d", tab.used, n)
	}
	if tab.resizes == 0 {
		t.Error("expected resizes growing 200 groups from capacity 16")
	}
	for i := range tab.slots {
		s := &tab.slots[i]
		if s.used && s.accs[0].count != 3 {
			t.Errorf("group %v count = %d, want 3", s.key, s.accs[0].count)
		}
	}
}

// TestAggTableDuplicateKeysAcrossResizes interleaves re-used keys with
// fresh ones so lookups must keep finding existing groups while the table
// rehashes underneath them.
func TestAggTableDuplicateKeysAcrossResizes(t *testing.T) {
	tab := newAggTable(1)
	aggs := []AggSpec{{Kind: AggCountStar}}
	const n = 500
	for i := 0; i < n; i++ {
		for _, k := range []int64{int64(i), int64(i % 7)} {
			key := []types.Datum{types.Int(k), types.Str(fmt.Sprint(k % 3))}
			accs := tab.lookup(key, func() []aggAcc { return newAccs(aggs) })
			accs[0].count++
		}
	}
	if tab.used != n {
		t.Fatalf("groups = %d, want %d", tab.used, n)
	}
	var total int64
	for i := range tab.slots {
		if tab.slots[i].used {
			total += tab.slots[i].accs[0].count
		}
	}
	if total != 2*n {
		t.Errorf("total count = %d, want %d", total, 2*n)
	}
	// Keys 0..6 absorbed the duplicate stream: n/7-ish extra counts each.
	key0 := []types.Datum{types.Int(0), types.Str("0")}
	if got := tab.lookup(key0, func() []aggAcc { return newAccs(aggs) })[0].count; got != 1+(n+6)/7 {
		t.Errorf("key 0 count = %d, want %d", got, 1+(n+6)/7)
	}
}

func TestAggTableAbsorb(t *testing.T) {
	aggs := []AggSpec{{Kind: AggCountStar}, {Kind: AggSum}}
	mk := func() []aggAcc { return newAccs(aggs) }
	a, b := newAggTable(4), newAggTable(4)
	for i := 0; i < 10; i++ {
		accs := a.lookup([]types.Datum{types.Int(int64(i % 4))}, mk)
		accs[0].count++
		accs[1].sum += float64(i)
	}
	for i := 0; i < 10; i++ {
		accs := b.lookup([]types.Datum{types.Int(int64(i % 5))}, mk)
		accs[0].count++
		accs[1].sum += float64(i)
	}
	a.absorb(b, aggs)
	if a.used != 5 {
		t.Fatalf("merged groups = %d, want 5", a.used)
	}
	var count int64
	var sum float64
	for i := range a.slots {
		if a.slots[i].used {
			count += a.slots[i].accs[0].count
			sum += a.slots[i].accs[1].sum
		}
	}
	if count != 20 || sum != 90 {
		t.Errorf("merged totals = (%d, %g), want (20, 90)", count, sum)
	}
}

func TestMergeAccs(t *testing.T) {
	aggs := []AggSpec{
		{Kind: AggCountStar},
		{Kind: AggCountDistinct},
		{Kind: AggSum},
		{Kind: AggAvg},
		{Kind: AggMin},
		{Kind: AggMax},
	}
	dst, src := newAccs(aggs), newAccs(aggs)
	dst[0].count = 3
	src[0].count = 4
	dst[1].distinct.add(1, []types.Datum{types.Int(1)})
	src[1].distinct.add(1, []types.Datum{types.Int(1)})
	src[1].distinct.add(2, []types.Datum{types.Int(2)})
	dst[2].sum = 1.5
	src[2].sum = 2.5
	dst[3].sum, dst[3].count = 10, 2
	src[3].sum, src[3].count = 20, 3
	dst[4].min, dst[4].max, dst[4].seen = types.Int(5), types.Int(5), true
	src[4].min, src[4].max, src[4].seen = types.Int(3), types.Int(9), true
	// dst[5] never saw a value; src[5] did — the merge must adopt it.
	src[5].min, src[5].max, src[5].seen = types.Int(7), types.Int(7), true

	mergeAccs(dst, src, aggs)
	if dst[0].count != 7 {
		t.Errorf("count = %d, want 7", dst[0].count)
	}
	if dst[1].distinct.n != 2 {
		t.Errorf("distinct = %d, want 2", dst[1].distinct.n)
	}
	if dst[2].sum != 4 {
		t.Errorf("sum = %g, want 4", dst[2].sum)
	}
	if dst[3].sum != 30 || dst[3].count != 5 {
		t.Errorf("avg state = (%g, %d), want (30, 5)", dst[3].sum, dst[3].count)
	}
	if !dst[4].seen || dst[4].min.I != 3 || dst[4].max.I != 9 {
		t.Errorf("min/max = (%v, %v), want (3, 9)", dst[4].min, dst[4].max)
	}
	if !dst[5].seen || dst[5].min.I != 7 || dst[5].max.I != 7 {
		t.Errorf("unseen dst must adopt src: (%v, %v)", dst[5].min, dst[5].max)
	}
}

// TestSortRowsMixedKinds pins down the cross-kind ordering: datums of
// different, non-comparable kinds order by kind instead of panicking in
// Datum.Compare, numerics of different kinds still compare by value, and
// the order is deterministic across shuffles.
func TestSortRowsMixedKinds(t *testing.T) {
	mk := func() [][]types.Datum {
		return [][]types.Datum{
			{types.Str("b"), types.Int(1)},
			{types.Int(2), types.Int(2)},
			{types.Float(1.5), types.Int(3)},
			{types.Str("a"), types.Int(4)},
			{types.Int(1), types.Int(5)},
		}
	}
	a, b := mk(), mk()
	// Reverse b before sorting: both orders must converge.
	for i, j := 0, len(b)-1; i < j; i, j = i+1, j-1 {
		b[i], b[j] = b[j], b[i]
	}
	sortRows(a)
	sortRows(b)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("sortRows not deterministic:\n%v\n%v", a, b)
	}
	// Numerics (int and float mixed) precede strings, ordered by value.
	wantFirst := []int64{5, 3, 2} // values 1, 1.5, 2
	for i, id := range wantFirst {
		if a[i][1].I != id {
			t.Fatalf("row %d = %v, want second cell %d (full order %v)", i, a[i], id, a)
		}
	}
	if a[3][0].S != "a" || a[4][0].S != "b" {
		t.Errorf("string rows out of order: %v", a)
	}
}
