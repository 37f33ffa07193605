package main

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"bytecard/internal/datagen"
	"bytecard/internal/engine"
	"bytecard/internal/storage"
	"bytecard/internal/types"
)

// digest is an order-independent fingerprint of a query result: its row
// count, the wrapping sum of a hash of each row's exact cells, and a sum
// over the float cells. Two results with the same rows in any order have
// equal digests. Integers and strings must match exactly: each row's hash
// covers every cell's kind and, for all but floats, its value. Floats (AVG
// and SUM over float columns) may differ in the last bits, because a
// parallel aggregation adds its partial sums in another order than the
// sequential reference does. Each float adds asinh(value) times a weight
// drawn from its row's hash and its column, and the float sums are
// compared with a tolerance: asinh moves by at most the value's own
// relative error, so a last-bit difference stays far below the tolerance
// while a wrong value, or a right value in the wrong group, does not.
// A digest is four words, so memoizing one per statement holds no rows.
type digest struct {
	rows, floats int
	exact        uint64
	fsum         float64
}

func digestOf(res *engine.Result) digest {
	var d digest
	for _, r := range res.Rows {
		d.add(r)
	}
	return d
}

// add folds one row into d.
func (d *digest) add(row []types.Datum) {
	h := uint64(14695981039346656037) // FNV-1a over the exact cells
	word := func(v uint64) {
		for k := 0; k < 8; k++ {
			h = (h ^ (v & 0xff)) * 1099511628211
			v >>= 8
		}
	}
	for _, c := range row {
		word(uint64(c.K))
		if c.K == types.KindFloat64 {
			continue
		}
		word(uint64(c.I))
		word(uint64(len(c.S)))
		for k := 0; k < len(c.S); k++ {
			h = (h ^ uint64(c.S[k])) * 1099511628211
		}
	}
	h = mix(h)
	d.rows++
	d.exact += h
	for j, c := range row {
		if c.K == types.KindFloat64 {
			w := 1 + float64(mix(h+uint64(j))>>11)/(1<<53)
			d.fsum += w * math.Asinh(c.F)
			d.floats++
		}
	}
}

// mix is the SplitMix64 finalizer: it spreads every input bit over the
// whole word, so that sums of row hashes do not collide by carry patterns.
func mix(x uint64) uint64 {
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// diff reports how a differs from b, or "" when they agree.
func (a digest) diff(b digest) string {
	switch {
	case a.rows != b.rows:
		return fmt.Sprintf("%d rows, want %d", a.rows, b.rows)
	case a.floats != b.floats:
		return fmt.Sprintf("%d float cells, want %d", a.floats, b.floats)
	case a.exact != b.exact:
		return "rows differ in an integer or string cell"
	case !(math.Abs(a.fsum-b.fsum) <= 1e-9*float64(max(1, a.floats))):
		return fmt.Sprintf("float cells differ (weighted sums %v, want %v)", a.fsum, b.fsum)
	}
	return ""
}

// reference answers queries with a second, deliberately plain engine over
// the same data: heuristic estimates, sequential execution, no plan cache.
// It shares the storage layer with the system under test but none of the
// learned estimation, caching or parallel execution.
type reference struct {
	eng  *engine.Engine
	memo map[string]digest
}

func newReference(ds *datagen.Dataset) *reference {
	e := engine.New(ds.DB, ds.Schema, engine.HeuristicEstimator{})
	e.Parallelism = 1
	return &reference{eng: e, memo: map[string]digest{}}
}

// digest returns the digest of the reference result of sql, memoizing it
// when keep is set.
func (r *reference) digest(sql string, keep bool) (digest, error) {
	if d, ok := r.memo[sql]; ok {
		return d, nil
	}
	res, err := r.eng.Run(sql)
	if err != nil {
		return digest{}, fmt.Errorf("reference: %w", err)
	}
	d := digestOf(res)
	if keep {
		r.memo[sql] = d
	}
	return d, nil
}

// naive answers sql with the engine's brute-force oracle, which enumerates
// the filtered cross product. Only single-table workloads can afford it.
func (r *reference) naive(sql string) (digest, error) {
	res, err := r.eng.RunNaive(sql)
	if err != nil {
		return digest{}, fmt.Errorf("naive: %w", err)
	}
	return digestOf(res), nil
}

// tsOracle answers timeseries-scan statements straight from the readings
// columns, without the engine: ts is append-ordered, so a window is found
// by binary search and counted by a scan of the rows inside it.
type tsOracle struct {
	n                int
	ts, metric, host *storage.Column
	tags             map[string]*storage.Column
}

func newTSOracle(ds *datagen.Dataset) (*tsOracle, error) {
	t := ds.DB.Table("readings")
	if t == nil {
		return nil, fmt.Errorf("dataset %s has no readings table", ds.Name)
	}
	o := &tsOracle{n: t.NumRows(), ts: t.ColByName("ts"), metric: t.ColByName("metric"), host: t.ColByName("host"), tags: map[string]*storage.Column{}}
	for _, tag := range []string{"host", "sensor", "device_id"} {
		o.tags[tag] = t.ColByName(tag)
	}
	for i := 1; i < o.n; i++ {
		if o.ts.Value(i).I < o.ts.Value(i-1).I {
			return nil, fmt.Errorf("readings.ts is not append-ordered at row %d", i)
		}
	}
	return o, nil
}

// digest answers one statement of the shape tsGen writes.
func (o *tsOracle) digest(sql string) (digest, error) {
	head, where, ok := strings.Cut(sql, " FROM readings WHERE ")
	if !ok {
		return digest{}, fmt.Errorf("oracle: unexpected statement %q", sql)
	}
	var (
		lo, hi, metric int64
		host           = types.Datum{}
	)
	for _, c := range strings.Split(where, " AND ") {
		var err error
		switch {
		case strings.HasPrefix(c, "readings.ts >= "):
			lo, err = strconv.ParseInt(strings.TrimPrefix(c, "readings.ts >= "), 10, 64)
		case strings.HasPrefix(c, "readings.ts <= "):
			hi, err = strconv.ParseInt(strings.TrimPrefix(c, "readings.ts <= "), 10, 64)
		case strings.HasPrefix(c, "readings.metric = "):
			metric, err = strconv.ParseInt(strings.TrimPrefix(c, "readings.metric = "), 10, 64)
		case strings.HasPrefix(c, "readings.host = '"):
			host = types.Str(strings.TrimSuffix(strings.TrimPrefix(c, "readings.host = '"), "'"))
		default:
			err = fmt.Errorf("unexpected condition %q", c)
		}
		if err != nil {
			return digest{}, fmt.Errorf("oracle: %w", err)
		}
	}
	var distinct *storage.Column
	if tag, ok := strings.CutPrefix(head, "SELECT COUNT(DISTINCT readings."); ok {
		distinct = o.tags[strings.TrimSuffix(tag, ")")]
		if distinct == nil {
			return digest{}, fmt.Errorf("oracle: unexpected select list %q", head)
		}
	} else if head != "SELECT COUNT(*)" {
		return digest{}, fmt.Errorf("oracle: unexpected select list %q", head)
	}
	seen := map[types.Datum]bool{}
	var count int64
	for i := sort.Search(o.n, func(i int) bool { return o.ts.Value(i).I >= lo }); i < o.n && o.ts.Value(i).I <= hi; i++ {
		if (metric != 0 && o.metric.Value(i).I != metric) || (host.K == types.KindString && o.host.Value(i) != host) {
			continue
		}
		if distinct == nil {
			count++
		} else if d := distinct.Value(i); !seen[d] {
			seen[d] = true
			count++
		}
	}
	var d digest
	d.add([]types.Datum{types.Int(count)})
	return d, nil
}
