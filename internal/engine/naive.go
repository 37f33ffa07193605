package engine

import (
	"fmt"
	"math"
	"strings"

	"bytecard/internal/sqlparse"
	"bytecard/internal/types"
)

// RunNaive executes the query with a deliberately simple row-at-a-time
// nested-loop interpreter: no optimizer, no hash joins, no columnar
// readers. It exists purely as a reference oracle — integration tests
// cross-check every optimized execution against it on small datasets.
func (e *Engine) RunNaive(sql string) (*Result, error) {
	stmt, err := sqlparse.Parse(sql)
	if err != nil {
		return nil, err
	}
	q, err := e.Analyze(stmt)
	if err != nil {
		return nil, err
	}

	// Enumerate the filtered cross product, checking join conditions.
	var match [][]int32
	var rec func(level int, tuple []int32)
	rec = func(level int, tuple []int32) {
		if level == len(q.Tables) {
			cp := make([]int32, len(tuple))
			copy(cp, tuple)
			match = append(match, cp)
			return
		}
		t := q.Tables[level]
		for i := 0; i < t.Table.NumRows(); i++ {
			row := int32(i)
			if t.Filter != nil {
				ok := t.Filter.Eval(func(_, col string) types.Datum {
					//bytecard:rawscan-ok brute-force oracle verifies results, not I/O accounting
					return t.Table.ColByName(col).Value(int(row))
				})
				if !ok {
					continue
				}
			}
			joinsOK := true
			for _, j := range q.Joins {
				li, ri := bindingIndex(q, j.LeftTab), bindingIndex(q, j.RightTab)
				if li > level || ri > level || (li != level && ri != level) {
					continue
				}
				var lv, rv types.Datum
				if li == level {
					lv = valueAt(q, li, row, j.LeftCol)
				} else {
					lv = valueAt(q, li, tuple[li], j.LeftCol)
				}
				if ri == level {
					rv = valueAt(q, ri, row, j.RightCol)
				} else {
					rv = valueAt(q, ri, tuple[ri], j.RightCol)
				}
				if !lv.Equal(rv) {
					joinsOK = false
					break
				}
			}
			if !joinsOK {
				continue
			}
			rec(level+1, append(tuple, row))
		}
	}
	rec(0, nil)

	// Group by a lossless key encoding and evaluate each aggregate from
	// first principles over its group's tuples: the oracle shares neither
	// the executor's hash tables nor its accumulators. Without GROUP BY,
	// every match forms the one group.
	fetch := func(ref ColRef, tuple []int32) types.Datum {
		i := bindingIndex(q, ref.Tab)
		return valueAt(q, i, tuple[i], ref.Col)
	}
	res := &Result{}
	for _, item := range q.Stmt.Items {
		res.Columns = append(res.Columns, item.String())
	}
	type group struct {
		key    []types.Datum
		tuples [][]int32
	}
	groups := []*group{{tuples: match}}
	if len(q.GroupBy) > 0 {
		groups = nil
		byKey := map[string]*group{}
		for _, tuple := range match {
			key, enc := naiveKey(q.GroupBy, tuple, fetch)
			g := byKey[enc]
			if g == nil {
				g = &group{key: key}
				byKey[enc] = g
				groups = append(groups, g)
			}
			g.tuples = append(g.tuples, tuple)
		}
	}
	for _, g := range groups {
		row := make([]types.Datum, len(q.outPlan))
		for i, item := range q.outPlan {
			if item.isAgg {
				row[i] = naiveAgg(q.Aggs[item.aggIdx], g.tuples, fetch)
			} else {
				row[i] = g.key[item.groupIdx]
			}
		}
		res.Rows = append(res.Rows, row)
	}
	sortRows(res.Rows)
	return res, nil
}

// naiveKey reads cols of tuple and encodes the key so that keys encode
// alike exactly when they compare equal: integral numerics of either kind
// as integers (Int(3) equals Float(3), and -0 equals 0), other floats by
// value, everything else by kind and text. (Int values past 2^53 against
// floats are the one exception: there Datum equality is not transitive.)
func naiveKey(cols []ColRef, tuple []int32, fetch func(ColRef, []int32) types.Datum) ([]types.Datum, string) {
	key := make([]types.Datum, len(cols))
	var b strings.Builder
	for i, c := range cols {
		d := fetch(c, tuple)
		key[i] = d
		switch f := d.AsFloat(); {
		case d.K == types.KindInt64:
			fmt.Fprintf(&b, "i%d|", d.I)
		case d.IsNumeric() && f == math.Trunc(f) && math.Abs(f) < 1<<63:
			fmt.Fprintf(&b, "i%d|", int64(f))
		case d.IsNumeric():
			fmt.Fprintf(&b, "f%v|", f)
		default:
			fmt.Fprintf(&b, "%d%q|", d.K, d.S)
		}
	}
	return key, b.String()
}

// naiveAgg evaluates one aggregate over a group's matching tuples.
func naiveAgg(a AggSpec, tuples [][]int32, fetch func(ColRef, []int32) types.Datum) types.Datum {
	switch a.Kind {
	case AggCountStar:
		return types.Int(int64(len(tuples)))
	case AggCountDistinct:
		seen := map[string]bool{}
		for _, tuple := range tuples {
			_, enc := naiveKey(a.Cols, tuple, fetch)
			seen[enc] = true
		}
		return types.Int(int64(len(seen)))
	}
	var sum float64
	var best types.Datum
	for i, tuple := range tuples {
		v := fetch(a.Cols[0], tuple)
		sum += v.AsFloat()
		if i == 0 || (a.Kind == AggMin && v.Less(best)) || (a.Kind == AggMax && best.Less(v)) {
			best = v
		}
	}
	if a.Kind == AggAvg && len(tuples) > 0 {
		sum /= float64(len(tuples))
	}
	if a.Kind == AggSum || a.Kind == AggAvg {
		return types.Float(sum)
	}
	return best
}

func bindingIndex(q *Query, binding string) int {
	for i, t := range q.Tables {
		if t.Binding == binding {
			return i
		}
	}
	panic(fmt.Sprintf("engine: unknown binding %s", binding))
}

func valueAt(q *Query, tableIdx int, row int32, col string) types.Datum {
	//bytecard:rawscan-ok brute-force oracle verifies results, not I/O accounting
	return q.Tables[tableIdx].Table.ColByName(col).Value(int(row))
}
