package engine

import (
	"fmt"
	"math"
	"testing"

	"bytecard/internal/types"
)

// oneKeys makes one-column integer keys.
func oneKeys(vs ...int64) [][]types.Datum {
	out := make([][]types.Datum, len(vs))
	for i, v := range vs {
		out[i] = []types.Datum{types.Int(v)}
	}
	return out
}

// Hashes a case can hand the table in place of hashKey: every key on one
// chain, or small chains of several keys each.
var (
	realHash = hashKey
	oneChain = func([]types.Datum) uint64 { return 0xdeadbeef }
	mod3     = func(k []types.Datum) uint64 { return uint64(k[0].I % 3) }
)

// TestKeyTable drives the one Datum-tuple hash table the way its users do:
// SIP and COUNT DISTINCT insert and find, compress reads insert's added
// flag, GROUP BY indexes accumulators by group id, and the join build
// files row i under key i's group. A reference grouping by keysEqual gives
// every insert's expected group. All inserts go through one buffer that is
// clobbered after each call, so a key not copied on insert shows up as a
// wrong group or stored key.
func TestKeyTable(t *testing.T) {
	var allColliding, dupStream [][]types.Datum
	for round := 0; round < 3; round++ {
		for i := int64(0); i < 200; i++ {
			allColliding = append(allColliding, []types.Datum{types.Int(i)})
		}
	}
	// Fresh keys interleaved with re-used ones, so lookups must keep
	// finding existing groups while the table rehashes underneath them.
	for i := int64(0); i < 500; i++ {
		for _, k := range []int64{i, i % 7} {
			dupStream = append(dupStream, []types.Datum{types.Int(k), types.Str(fmt.Sprint(k % 3))})
		}
	}
	cases := []struct {
		name     string
		expected int // presized group count
		hash     func([]types.Datum) uint64
		keys     [][]types.Datum
		groups   int
		resizes  int
	}{
		{"colliding hashes keep unequal keys apart", 0, oneChain,
			[][]types.Datum{{types.Int(1)}, {types.Int(2)}, {types.Int(1)}, {types.Str("1")}, {types.Int(7)}, {types.Int(8)}}, 5, 0},
		{"int and float of one value are one key", 0, realHash,
			[][]types.Datum{{types.Int(3)}, {types.Float(3)}, {types.Float(3.5)}, {types.Int(3)}}, 2, 0},
		// Growing 200 groups from 16 slots doubles at 12, 23, 45, 90 and
		// 180 groups.
		{"all colliding across resizes from capacity 16", 1, oneChain, allColliding, 200, 5},
		{"duplicate keys across resizes", 1, realHash, dupStream, 500, 6},
		{"presized table never resizes", 500, realHash, dupStream, 500, 0},
		{"duplicate keys under forced collisions keep insertion order", 0, mod3,
			oneKeys(5, 2, 5, 8, 2, 5, 11, 8, 14, 2), 5, 0},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			width := len(c.keys[0])
			tab := newKeyTable(width, c.expected)
			buf := make([]types.Datum, width)
			var distinct [][]types.Datum // reference key of each group
			var rows [][]int32           // reference rows of each group
			groups := make([]int32, len(c.keys))
			for i, k := range c.keys {
				want := len(distinct)
				for g, d := range distinct {
					if keysEqual(d, k) {
						want = g
						break
					}
				}
				if want == len(distinct) {
					distinct = append(distinct, k)
					rows = append(rows, nil)
				}
				rows[want] = append(rows[want], int32(i))
				copy(buf, k)
				g, added := tab.insert(c.hash(k), buf)
				buf[0] = types.Str("clobbered")
				if g != want || added != (len(rows[want]) == 1) {
					t.Fatalf("insert %d (%v) = (%d, %v), want (%d, %v)", i, k, g, added, want, len(rows[want]) == 1)
				}
				groups[i] = int32(g)
			}
			if tab.Len() != c.groups || tab.resizes != c.resizes {
				t.Errorf("groups = %d, resizes = %d, want %d and %d", tab.Len(), tab.resizes, c.groups, c.resizes)
			}
			build := newJoinBuild(tab, rowRange(0, len(c.keys)), groups)
			for g, k := range distinct {
				if !keysEqual(tab.key(g), k) {
					t.Errorf("group %d stores %v, want %v", g, tab.key(g), k)
				}
				if got, _ := tab.find(c.hash(k), k); got != g {
					t.Errorf("find(%v) = %d, want %d", k, got, g)
				}
				if got := build.rowsOf(g); fmt.Sprint(got) != fmt.Sprint(rows[g]) {
					t.Errorf("rows of %v = %v, want %v in insertion order", k, got, rows[g])
				}
			}
			absent := append([]types.Datum{types.Str("absent")}, c.keys[0][1:]...)
			if got, _ := tab.find(c.hash(absent), absent); got != -1 {
				t.Errorf("find(absent) = %d, want -1", got)
			}
		})
	}
}

// TestKeyTableMerge folds one table into another the two ways the executor
// does: merge (COUNT DISTINCT sets) and absorb (GROUP BY tables with their
// COUNT(*) and SUM accumulators). Shared keys combine, colliding keys stay
// apart, and the stored hashes are reused.
func TestKeyTableMerge(t *testing.T) {
	cases := []struct {
		name   string
		hash   func([]types.Datum) uint64
		a, b   [][]types.Datum
		groups int
	}{
		{"overlapping groups", realHash, oneKeys(0, 1, 2, 3, 0, 1, 2, 3, 0, 1), oneKeys(0, 1, 2, 3, 4, 0, 1, 2, 3, 4), 5},
		{"shared member among colliding keys", oneChain, oneKeys(10, 20), oneKeys(20, 21, 30), 4},
		{"chains across both tables", mod3, oneKeys(1, 4, 7, 2), oneKeys(7, 10, 5, 2, 3), 7},
	}
	aggs := []AggSpec{{Kind: AggCountStar}, {Kind: AggSum}}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			fill := func(keys [][]types.Datum) (*keyTable, [][]aggAcc) {
				tab := newKeyTable(1, 4)
				var accs [][]aggAcc
				for _, k := range keys {
					g, added := tab.insert(c.hash(k), k)
					if added {
						accs = append(accs, newAccs(aggs))
					}
					accs[g][0].count++
					accs[g][1].sum += float64(k[0].I)
				}
				return tab, accs
			}
			a, accsA := fill(c.a)
			b, accsB := fill(c.b)
			set := newKeyTable(1, 0)
			set.merge(a)
			set.merge(b)
			if set.Len() != c.groups {
				t.Errorf("merged set has %d keys, want %d", set.Len(), c.groups)
			}
			accs := absorb(a, accsA, b, accsB, aggs)
			if a.Len() != c.groups || len(accs) != c.groups {
				t.Fatalf("absorbed groups = %d (%d accumulators), want %d", a.Len(), len(accs), c.groups)
			}
			for g := 0; g < a.Len(); g++ {
				k := a.key(g)
				var count int64
				for _, o := range append(append([][]types.Datum{}, c.a...), c.b...) {
					if keysEqual(o, k) {
						count++
					}
				}
				if accs[g][0].count != count || accs[g][1].sum != float64(count*k[0].I) {
					t.Errorf("group %v = (%d, %g), want (%d, %d)", k, accs[g][0].count, accs[g][1].sum, count, count*k[0].I)
				}
			}
		})
	}
}

// TestDistinctSetCollisions is the regression test for the COUNT DISTINCT
// set: two different key tuples forced onto the same 64-bit hash must
// count as two distinct values, and re-adding either must not.
func TestDistinctSetCollisions(t *testing.T) {
	s := newKeyTable(1, 0)
	const h = uint64(0xdeadbeef)
	s.insert(h, []types.Datum{types.Int(1)})
	s.insert(h, []types.Datum{types.Int(2)}) // colliding hash, different datum
	s.insert(h, []types.Datum{types.Int(1)}) // duplicate
	s.insert(h, []types.Datum{types.Str("1")})
	if s.Len() != 3 {
		t.Errorf("distinct count = %d, want 3 (collisions must not dedup different datums)", s.Len())
	}
	// The inserted keys must be copies: mutating the caller's buffer must
	// not corrupt the set.
	buf := []types.Datum{types.Int(7)}
	s.insert(h, buf)
	buf[0] = types.Int(8)
	s.insert(h, buf)
	if s.Len() != 5 {
		t.Errorf("distinct count = %d, want 5 (keys must be copied on insert)", s.Len())
	}
}

func TestDistinctSetMerge(t *testing.T) {
	a, b := newKeyTable(1, 0), newKeyTable(1, 0)
	a.insert(1, []types.Datum{types.Int(10)})
	a.insert(2, []types.Datum{types.Int(20)})
	b.insert(2, []types.Datum{types.Int(20)}) // shared member
	b.insert(2, []types.Datum{types.Int(21)}) // colliding with it
	b.insert(3, []types.Datum{types.Int(30)})
	a.merge(b)
	if a.Len() != 4 {
		t.Errorf("merged distinct count = %d, want 4", a.Len())
	}
}

// groupTable is a GROUP BY table as the executor keeps one: a keyTable
// and one accumulator row per group id.
type groupTable struct {
	*keyTable
	accs [][]aggAcc
}

func newGroupTable(width, expected int) *groupTable {
	return &groupTable{keyTable: newKeyTable(width, expected)}
}

// lookup returns the accumulators of key's group, adding the group when
// it is new.
func (t *groupTable) lookup(h uint64, key []types.Datum, aggs []AggSpec) []aggAcc {
	g, added := t.insert(h, key)
	if added {
		t.accs = append(t.accs, newAccs(aggs))
	}
	return t.accs[g]
}

// TestAggTableAllCollidingHashes drives the aggregation table with every
// key hashed to the same value, across enough inserts to force several
// resizes — lookups must still resolve each key to its own group.
func TestAggTableAllCollidingHashes(t *testing.T) {
	tab := newGroupTable(1, 0)
	aggs := []AggSpec{{Kind: AggCountStar}}
	const n = 200
	for round := 0; round < 3; round++ {
		for i := 0; i < n; i++ {
			key := []types.Datum{types.Int(int64(i))}
			tab.lookup(0, key, aggs)[0].count++
		}
	}
	if tab.Len() != n {
		t.Fatalf("groups = %d, want %d", tab.Len(), n)
	}
	if tab.resizes == 0 {
		t.Error("expected resizes growing 200 groups from capacity 16")
	}
	for g, accs := range tab.accs {
		if accs[0].count != 3 {
			t.Errorf("group %v count = %d, want 3", tab.key(g), accs[0].count)
		}
	}
}

// TestAggTableDuplicateKeysAcrossResizes interleaves re-used keys with
// fresh ones so lookups must keep finding existing groups while the table
// rehashes underneath them.
func TestAggTableDuplicateKeysAcrossResizes(t *testing.T) {
	tab := newGroupTable(2, 0)
	aggs := []AggSpec{{Kind: AggCountStar}}
	const n = 500
	for i := 0; i < n; i++ {
		for _, k := range []int64{int64(i), int64(i % 7)} {
			key := []types.Datum{types.Int(k), types.Str(fmt.Sprint(k % 3))}
			tab.lookup(hashKey(key), key, aggs)[0].count++
		}
	}
	if tab.Len() != n {
		t.Fatalf("groups = %d, want %d", tab.Len(), n)
	}
	if tab.resizes == 0 {
		t.Error("expected resizes growing 500 groups from capacity 16")
	}
	var total int64
	for _, accs := range tab.accs {
		total += accs[0].count
	}
	if total != 2*n {
		t.Errorf("total count = %d, want %d", total, 2*n)
	}
	// Keys 0..6 absorbed the duplicate stream: n/7-ish extra counts each.
	key0 := []types.Datum{types.Int(0), types.Str("0")}
	if got := tab.lookup(hashKey(key0), key0, aggs)[0].count; got != 1+(n+6)/7 {
		t.Errorf("key 0 count = %d, want %d", got, 1+(n+6)/7)
	}
}

func TestAggTableAbsorb(t *testing.T) {
	aggs := []AggSpec{{Kind: AggCountStar}, {Kind: AggSum}}
	a, b := newGroupTable(1, 4), newGroupTable(1, 4)
	for i := 0; i < 10; i++ {
		key := []types.Datum{types.Int(int64(i % 4))}
		accs := a.lookup(hashKey(key), key, aggs)
		accs[0].count++
		accs[1].sum += float64(i)
	}
	for i := 0; i < 10; i++ {
		key := []types.Datum{types.Int(int64(i % 5))}
		accs := b.lookup(hashKey(key), key, aggs)
		accs[0].count++
		accs[1].sum += float64(i)
	}
	a.accs = absorb(a.keyTable, a.accs, b.keyTable, b.accs, aggs)
	if a.Len() != 5 || len(a.accs) != 5 {
		t.Fatalf("merged groups = %d (%d accumulators), want 5", a.Len(), len(a.accs))
	}
	var count int64
	var sum float64
	for _, accs := range a.accs {
		count += accs[0].count
		sum += accs[1].sum
	}
	if count != 20 || sum != 90 {
		t.Errorf("merged totals = (%d, %g), want (20, 90)", count, sum)
	}
}

// TestNaiveEncodeExactEquality pins the oracle's grouping key to Datum
// equality: integers one float apart stay apart, and keys that compare
// equal across kinds or signs of zero encode alike.
func TestNaiveEncodeExactEquality(t *testing.T) {
	cases := []struct {
		a, b  types.Datum
		equal bool
	}{
		{types.Int(1 << 53), types.Int(1<<53 + 1), false},
		{types.Int(3), types.Float(3), true},
		{types.Float(math.Copysign(0, -1)), types.Int(0), true},
		{types.Float(2.5), types.Float(2.5), true},
		{types.Float(2.5), types.Float(2.25), false},
		{types.Str("3"), types.Int(3), false},
		{types.Str("a|"), types.Str("a"), false},
	}
	cols := []ColRef{{Col: "0"}, {Col: "1"}}
	encode := func(key []types.Datum) string {
		_, enc := naiveKey(cols, nil, func(c ColRef, _ []int32) types.Datum { return key[c.Col[0]-'0'] })
		return enc
	}
	for _, c := range cases {
		ka, kb := []types.Datum{c.a, types.Str("x")}, []types.Datum{c.b, types.Str("x")}
		if keysEqual(ka, kb) != c.equal {
			t.Fatalf("keysEqual(%v, %v) != %v: the case itself is wrong", ka, kb, c.equal)
		}
		if ea, eb := encode(ka), encode(kb); (ea == eb) != c.equal {
			t.Errorf("%v and %v encode alike = %v, want %v (%q, %q)", ka, kb, ea == eb, c.equal, ea, eb)
		}
	}
}
