package engine

import "bytecard/internal/types"

// keyTable is the executor's one hash table keyed by Datum tuples. The
// hash-join build side, the SIP key set, compress's merge signatures,
// COUNT DISTINCT sets and GROUP BY tables all store their keys here.
// Groups get dense ids in insertion order; group g's key is copied into an
// arena of width datums per group, beside its hash. An open-addressing
// slot array with linear probing maps a hash to its group ids. Callers
// pass the hash (hashKey of the key) so tests can force collisions; keys
// compare with keysEqual, so colliding hashes never merge unequal keys. A
// table is written by one goroutine; once built, concurrent finds are
// safe.
type keyTable struct {
	width int
	// slots holds group id + 1; 0 marks an empty slot.
	slots  []int32
	hashes []uint64
	// keys is the arena, in pages of keyPage groups. A full page never
	// moves, so a large arena grows without copying keys; only the first
	// page grows by append, so a small table stays small.
	keys [][]types.Datum
	// resizes counts slot-array doublings — the observable the paper's
	// aggregation presizing reduces (reported for GROUP BY tables only).
	resizes int
}

const (
	// keyLoadFactor triggers growth.
	keyLoadFactor = 0.7
	// keyPage is the number of groups per arena page.
	keyPage = 256
)

// newKeyTable presizes a table of width-datum keys for expected groups:
// the smallest power of two that holds them under the load factor, and
// never fewer than 16 slots.
func newKeyTable(width, expected int) *keyTable {
	want := int(float64(expected)/keyLoadFactor) + 1
	n := 16
	for n < want {
		n <<= 1
	}
	return &keyTable{width: width, slots: make([]int32, n)}
}

// Len is the number of groups.
func (t *keyTable) Len() int { return len(t.hashes) }

// key returns group g's key, a view into the arena.
func (t *keyTable) key(g int) []types.Datum {
	o := g % keyPage * t.width
	return t.keys[g/keyPage][o : o+t.width]
}

// find returns the id of the group whose key equals key, or -1, and the
// slot where the walk along h's probe sequence stopped.
func (t *keyTable) find(h uint64, key []types.Datum) (g int, slot uint64) {
	mask := uint64(len(t.slots) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		id := t.slots[i]
		if id == 0 {
			return -1, i
		}
		if g := int(id - 1); t.hashes[g] == h && keysEqual(t.key(g), key) {
			return g, i
		}
	}
}

// insert returns the id of key's group, adding a group with a copy of key
// when none exists. Every call, hit or miss, first grows the table when
// one more group would exceed the load factor, so the resize count
// depends only on the sequence of calls.
func (t *keyTable) insert(h uint64, key []types.Datum) (g int, added bool) {
	if len(key) != t.width {
		panic("engine: key width mismatch")
	}
	if float64(len(t.hashes)+1) > keyLoadFactor*float64(len(t.slots)) {
		t.grow()
	}
	g, slot := t.find(h, key)
	if g >= 0 {
		return g, false
	}
	g = len(t.hashes)
	t.slots[slot] = int32(g + 1)
	t.hashes = append(t.hashes, h)
	if g%keyPage == 0 {
		t.keys = append(t.keys, make([]types.Datum, 0, min(g+1, keyPage)*t.width))
	}
	t.keys[g/keyPage] = append(t.keys[g/keyPage], key...)
	return g, true
}

// merge inserts o's groups into t in id order, reusing their stored
// hashes.
func (t *keyTable) merge(o *keyTable) {
	for g, h := range o.hashes {
		t.insert(h, o.key(g))
	}
}

// grow doubles the slot array and re-places every group from its stored
// hash — the resize cost the presizing optimization avoids.
func (t *keyTable) grow() {
	t.resizes++
	t.slots = make([]int32, 2*len(t.slots))
	mask := uint64(len(t.slots) - 1)
	for g, h := range t.hashes {
		i := h & mask
		for t.slots[i] != 0 {
			i = (i + 1) & mask
		}
		t.slots[i] = int32(g + 1)
	}
}

// hashKey is the hash every keyTable user passes: an FNV-style fold of
// each datum's Hash64, so Int(3) and Float(3) hash alike.
func hashKey(key []types.Datum) uint64 {
	var h uint64 = 1469598103934665603
	for _, d := range key {
		h = h*1099511628211 ^ d.Hash64()
	}
	return h
}

// keysEqual reports whether two key tuples are equal. Ragged lengths and
// non-comparable kind pairs compare unequal instead of panicking (or
// silently misjudging when a is a prefix of b).
func keysEqual(a, b []types.Datum) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].K != b[i].K && !(a[i].IsNumeric() && b[i].IsNumeric()) {
			return false
		}
		if !a[i].Equal(b[i]) {
			return false
		}
	}
	return true
}
