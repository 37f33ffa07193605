package engine

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"bytecard/internal/expr"
	"bytecard/internal/obs"
	"bytecard/internal/storage"
	"bytecard/internal/types"
)

// scanState is the runtime image of one scanned table: the surviving row
// ids and lazily created block-accounted column readers shared by later
// operators (late materialization reads land on the same readers — or on
// sibling readers sharing their charge sets — so every block is charged at
// most once per query).
type scanState struct {
	t       *QueryTable
	rows    []int32
	readers map[string]*storage.Reader
	io      *storage.IOStats
	// mu guards readers while concurrent workers create siblings; a lone
	// worker and the serial operators use reader/value lock-free.
	mu sync.Mutex
}

func (s *scanState) reader(col string) *storage.Reader {
	if r, ok := s.readers[col]; ok {
		return r
	}
	c := s.t.Table.ColByName(col)
	if c == nil {
		panic(fmt.Sprintf("engine: table %s has no column %s", s.t.Name, col))
	}
	r := c.NewReader(s.io)
	s.readers[col] = r
	return r
}

// sibling returns a worker-private reader sharing the canonical reader's
// block-charge set. Safe to call from concurrent workers.
func (s *scanState) sibling(col string) *storage.Reader {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.reader(col).Sibling()
}

func (s *scanState) value(col string, row int32) types.Datum {
	return s.reader(col).Value(int(row))
}

// Execute runs a physical plan.
func (e *Engine) Execute(p *Plan) (*Result, error) { return e.ExecuteTraced(p, nil) }

// ExecuteTraced runs a physical plan, recording one span per execution
// phase (scan, join step, aggregation) into tr; a nil tr disables
// recording.
func (e *Engine) ExecuteTraced(p *Plan, tr *obs.Trace) (*Result, error) {
	start := time.Now()
	q := p.Query
	m := Metrics{IO: &storage.IOStats{}, ReaderStrategy: map[string]string{}}
	ex := &execCtx{workers: e.workers(), tr: tr}
	m.ParallelWorkers = ex.workers

	// Only the leftmost table is scanned eagerly; later tables are scanned
	// at their join step so sideways information passing can prune them
	// with the intermediate's key set before their predicate columns are
	// read.
	states := make([]*scanState, len(q.Tables))
	first := p.JoinOrder[0]
	// Limit pushdown: a single-table projection query may stop its scan at
	// the Limit-th match — the only shape where the scan's output is the
	// query's output row-for-row.
	scanLimit := 0
	if len(q.Select) > 0 && len(q.Tables) == 1 {
		scanLimit = q.Limit
	}
	scanStart := time.Now()
	st, err := e.executeScan(q, p.Scans[first], &m, ex, scanLimit)
	if err != nil {
		return nil, err
	}
	states[first] = st
	m.ReaderStrategy[q.Tables[first].Binding] = p.Scans[first].Strategy
	ex.span(obs.OpExecScan, []string{q.Tables[first].Binding}, ex.workers, int64(len(st.rows)), time.Since(scanStart))

	inter, err := e.executeJoins(q, p, states, &m, ex)
	if err != nil {
		return nil, err
	}
	m.EstFinalRows = p.EstFinalRows
	for _, c := range inter.counts {
		m.ActualFinalRows += c
	}

	var res *Result
	if len(q.Select) > 0 {
		res = e.executeProjection(q, states, inter)
	} else {
		aggStart := time.Now()
		res = e.executeAggregation(q, p, states, inter, &m, ex)
		ex.span(obs.OpExecAgg, nil, ex.workers, int64(len(res.Rows)), time.Since(aggStart))
	}
	m.ScanBlocks = map[string]ScanBlockStats{}
	for i, st := range states {
		if st == nil {
			continue
		}
		var sb ScanBlockStats
		//bytecard:unordered-ok commutative integer sums over the binding's readers
		for _, r := range st.readers {
			sb.Read += r.BlocksCharged()
			sb.Skipped += r.BlocksSkipped()
		}
		m.ScanBlocks[q.Tables[i].Binding] = sb
	}
	m.ExecDuration = time.Since(start)
	res.Metrics = m
	return res, nil
}

// neededColumns lists the columns of table idx the query touches beyond the
// filter: join keys, group keys, and aggregate inputs.
func neededColumns(q *Query, idx int) []string {
	t := q.Tables[idx]
	seen := map[string]bool{}
	var out []string
	add := func(col string) {
		if !seen[col] {
			seen[col] = true
			out = append(out, col)
		}
	}
	for _, j := range q.Joins {
		if j.LeftTab == t.Binding {
			add(j.LeftCol)
		}
		if j.RightTab == t.Binding {
			add(j.RightCol)
		}
	}
	for _, g := range q.GroupBy {
		if g.Tab == t.Binding {
			add(g.Col)
		}
	}
	for _, a := range q.Aggs {
		for _, c := range a.Cols {
			if c.Tab == t.Binding {
				add(c.Col)
			}
		}
	}
	for _, s := range q.Select {
		if s.Tab == t.Binding {
			add(s.Col)
		}
	}
	return out
}

// executeScan applies the table filter through the body sp.Strategy
// names: "multi-stage" is the staged storage.BlockScan, anything else the
// one-pass reader. limit, when positive, lets the staged scan stop after
// that many matches (single-table projection queries only — the caller
// guarantees the scan's output is the query's output).
func (e *Engine) executeScan(q *Query, sp *ScanPlan, m *Metrics, ex *execCtx, limit int) (*scanState, error) {
	t := q.Tables[sp.TableIdx]
	st := &scanState{t: t, readers: map[string]*storage.Reader{}, io: m.IO}
	if sp.Strategy == "multi-stage" {
		start := time.Now()
		if err := stagedScan(st, sp, limit, ex); err != nil {
			return nil, err
		}
		if ex.tr.Active() {
			skipped := 0
			//bytecard:unordered-ok commutative integer sum over the scan's readers
			for _, r := range st.readers {
				skipped += r.BlocksSkipped()
			}
			ex.tr.Add(obs.Span{
				Op: obs.OpScanPushdown, Tables: []string{t.Binding},
				Source: "engine", Outcome: obs.OutcomeOK,
				Workers: ex.workers, Value: float64(skipped),
				Duration: time.Since(start),
			})
		}
	} else {
		onePassScan(q, st, sp, ex)
	}
	m.RowsMaterialized += int64(len(st.rows))
	return st, nil
}

// stagedScan routes one table scan through the storage.BlockScan contract
// in the planned column order. Only the constrained columns are handed to
// storage (projection pushdown: unreferenced columns are never read here),
// zone maps prune whole blocks before any charge, and survivors come back
// as a selection vector — downstream operators materialize lazily through
// the shared-charge readers. Block decisions are block-local, so every
// worker count reads and skips exactly the same blocks. A LIMIT scan runs
// as one serial chunk so it can stop at the limit-th match.
func stagedScan(st *scanState, sp *ScanPlan, limit int, ex *execCtx) error {
	preds, ok := st.t.Filter.Conjunction()
	if !ok {
		return fmt.Errorf("engine: multi-stage reader requires a conjunctive filter")
	}
	n := st.t.Table.NumRows()
	if len(preds) == 0 {
		if limit > 0 && limit < n {
			n = limit
		}
		st.rows = rowRange(0, n)
		return nil
	}
	cols, cons := stagedConstraints(st.t, preds, sp.ColOrder)
	opts := storage.ScanOptions{Constraints: cons, Limit: limit}
	size := morselRows
	if limit > 0 {
		size = n
	}
	st.rows = ex.scanChunks(st, n, size, func(v *workerView, lo, hi int) []int32 {
		readers := make([]*storage.Reader, len(cols))
		for i, c := range cols {
			readers[i] = v.reader(c)
		}
		return storage.BlockScan(readers, opts, lo, hi, nil)
	})
	return nil
}

// stagedConstraints compiles a conjunction into one constraint per
// column, in the planned order (first appearance when none is planned).
func stagedConstraints(t *QueryTable, preds []expr.Pred, order []string) ([]string, []expr.Constraint) {
	col := t.Table.ColByName
	cons := expr.BuildConstraints(preds, func(c string, d types.Datum) (float64, bool) {
		return col(c).EncodeDatum(d)
	})
	if len(order) == 0 {
		order = distinctCols(preds)
	}
	byCol := map[string]expr.Constraint{}
	for _, c := range cons {
		byCol[c.Col] = c
	}
	cols := make([]string, 0, len(order))
	ordered := make([]expr.Constraint, 0, len(order))
	for _, c := range order {
		if cc, ok := byCol[c]; ok {
			cols = append(cols, c)
			ordered = append(ordered, cc)
		}
	}
	return cols, ordered
}

// onePassScan is the one-pass reader (early materialization): each morsel
// loads every block of every touched column — filter columns plus
// downstream columns, since the reader constructs complete tuples
// immediately — and evaluates the full filter tree row-at-a-time. No block
// is skipped by zone map.
func onePassScan(q *Query, st *scanState, sp *ScanPlan, ex *execCtx) {
	filter := st.t.Filter
	seen := map[string]bool{}
	var cols []string
	for _, p := range filter.Leaves() {
		if !seen[p.Col] {
			seen[p.Col] = true
			cols = append(cols, p.Col)
		}
	}
	for _, c := range neededColumns(q, sp.TableIdx) {
		if !seen[c] {
			seen[c] = true
			cols = append(cols, c)
		}
	}
	st.rows = ex.scanChunks(st, st.t.Table.NumRows(), morselRows, func(v *workerView, lo, hi int) []int32 {
		for _, c := range cols {
			v.reader(c).LoadRange(lo, hi)
		}
		return evalFilter(v, filter, rowRange(lo, hi))
	})
}

// intermediate is a joined relation: tuples of row ids, one per table,
// each carrying a multiplicity count. Compression merges tuples that agree
// on every column the rest of the plan can still observe (remaining join
// keys, group keys, aggregate inputs), summing their multiplicities — the
// groupjoin-style optimization that keeps COUNT-heavy star joins bounded
// even when their logical cardinality reaches the paper's 10^12 range.
type intermediate struct {
	// tabs lists query-table indices; pos inverts it.
	tabs []int
	pos  map[int]int
	// tuples[i][k] is the row id in table tabs[k].
	tuples [][]int32
	// counts[i] is the logical multiplicity of tuple i.
	counts []int64
}

// executeJoins folds the scans together in the planned left-deep order.
func (e *Engine) executeJoins(q *Query, p *Plan, states []*scanState, m *Metrics, ex *execCtx) (*intermediate, error) {
	first := p.JoinOrder[0]
	inter := &intermediate{tabs: []int{first}, pos: map[int]int{first: 0}}
	inter.tuples = make([][]int32, len(states[first].rows))
	inter.counts = make([]int64, len(states[first].rows))
	for i, r := range states[first].rows {
		inter.tuples[i] = []int32{r}
		inter.counts[i] = 1
	}
	bindingIdx := map[string]int{}
	for i, t := range q.Tables {
		bindingIdx[t.Binding] = i
	}
	inter = compress(q, inter, states, p.JoinOrder[1:])
	for step, next := range p.JoinOrder[1:] {
		var conds []JoinCond
		for _, j := range q.Joins {
			l, r := bindingIdx[j.LeftTab], bindingIdx[j.RightTab]
			if _, in := inter.pos[l]; in && r == next {
				conds = append(conds, j)
			} else if _, in := inter.pos[r]; in && l == next {
				// Normalize so Left references the intermediate side.
				conds = append(conds, JoinCond{LeftTab: j.RightTab, LeftCol: j.RightCol, RightTab: j.LeftTab, RightCol: j.LeftCol})
			}
		}
		if len(conds) == 0 {
			return nil, fmt.Errorf("engine: table %s joins nothing in the current prefix", q.Tables[next].Binding)
		}
		// Sideways information passing: the intermediate's key set prunes
		// the next table's scan before its predicate columns are read.
		var sip map[uint64]bool
		if !e.DisableSIP {
			sip = make(map[uint64]bool, len(inter.tuples))
			key := make([]types.Datum, len(conds))
			for _, tuple := range inter.tuples {
				for k, c := range conds {
					lt := bindingIdx[c.LeftTab]
					key[k] = states[lt].value(c.LeftCol, tuple[inter.pos[lt]])
				}
				sip[hashKey(key)] = true
			}
		}
		stepStart := time.Now()
		if err := e.scanForJoin(q, p, states, next, conds, sip, m, ex); err != nil {
			return nil, err
		}
		out, err := hashJoin(q, inter, states, next, conds, bindingIdx, m, ex)
		if err != nil {
			return nil, err
		}
		inter = compress(q, out, states, p.JoinOrder[2+step:])
		if ex.tr.Active() {
			var prefix []string
			for _, ti := range inter.tabs {
				prefix = append(prefix, q.Tables[ti].Binding)
			}
			ex.span(obs.OpExecJoin, prefix, ex.workers, int64(len(inter.tuples)), time.Since(stepStart))
		}
	}
	return inter, nil
}

// sipFirstFraction bounds when SIP runs before the table filter: a key set
// smaller than this fraction of the table is worth probing first.
const sipFirstFraction = 0.25

// scanForJoin scans the next join table, applying sideways information
// passing when the intermediate's key set is selective enough: the key
// columns are read first, non-joining rows are dropped, and only then are
// the table's predicate columns read for the survivors — so a join order
// that keeps intermediates small (good estimates) directly reduces block
// I/O. The survivors are filtered by the body sp.Strategy names: staged
// column by column, or the full filter tree row-at-a-time.
func (e *Engine) scanForJoin(q *Query, p *Plan, states []*scanState, next int, conds []JoinCond, sip map[uint64]bool, m *Metrics, ex *execCtx) error {
	sp := p.Scans[next]
	t := q.Tables[next]
	n := t.Table.NumRows()
	sipFirst := sip != nil && float64(len(sip)) < sipFirstFraction*float64(n)
	if !sipFirst {
		st, err := e.executeScan(q, sp, m, ex, 0)
		if err != nil {
			return err
		}
		states[next] = st
		m.ReaderStrategy[t.Binding] = sp.Strategy
		return nil
	}
	st := &scanState{t: t, readers: map[string]*storage.Reader{}, io: m.IO}
	states[next] = st
	m.ReaderStrategy[t.Binding] = "sip+" + sp.Strategy

	// Stage 0: key-membership probe over the whole key column(s).
	candidates := ex.scanChunks(st, n, morselRows, func(v *workerView, lo, hi int) []int32 {
		keyReaders := make([]*storage.Reader, len(conds))
		for k, c := range conds {
			keyReaders[k] = v.reader(c.RightCol)
		}
		key := make([]types.Datum, len(conds))
		var rows []int32
		for i := lo; i < hi; i++ {
			for k := range conds {
				key[k] = keyReaders[k].Value(i)
			}
			if sip[hashKey(key)] {
				rows = append(rows, int32(i))
			}
		}
		return rows
	})
	m.SIPPruned += int64(n - len(candidates))

	// Stage 1..k: the table's own filter over the surviving candidates,
	// touching predicate-column blocks only where candidates remain.
	preds, _ := t.Filter.Conjunction()
	if sp.Strategy == "multi-stage" && len(preds) > 0 {
		cols, cons := stagedConstraints(t, preds, sp.ColOrder)
		st.rows = ex.scanChunks(st, len(candidates), tupleChunk, func(v *workerView, lo, hi int) []int32 {
			return stageFilter(v.reader, cols, cons, candidates[lo:hi])
		})
	} else {
		st.rows = ex.scanChunks(st, len(candidates), tupleChunk, func(v *workerView, lo, hi int) []int32 {
			return evalFilter(v, t.Filter, candidates[lo:hi])
		})
	}
	m.RowsMaterialized += int64(len(st.rows))
	return nil
}

// liveColumns lists, per joined table, the columns later plan stages can
// still observe: keys of join conditions involving tables outside the
// current set, group keys, and aggregate inputs.
func liveColumns(q *Query, inter *intermediate, remaining []int) map[int][]string {
	bindingIdx := map[string]int{}
	for i, t := range q.Tables {
		bindingIdx[t.Binding] = i
	}
	pending := map[int]bool{}
	for _, idx := range remaining {
		pending[idx] = true
	}
	live := map[int]map[string]bool{}
	add := func(binding, col string) {
		i := bindingIdx[binding]
		if _, in := inter.pos[i]; !in {
			return
		}
		if live[i] == nil {
			live[i] = map[string]bool{}
		}
		live[i][col] = true
	}
	for _, j := range q.Joins {
		l, r := bindingIdx[j.LeftTab], bindingIdx[j.RightTab]
		if pending[l] || pending[r] {
			add(j.LeftTab, j.LeftCol)
			add(j.RightTab, j.RightCol)
		}
	}
	for _, g := range q.GroupBy {
		add(g.Tab, g.Col)
	}
	for _, a := range q.Aggs {
		for _, c := range a.Cols {
			add(c.Tab, c.Col)
		}
	}
	out := map[int][]string{}
	//bytecard:unordered-ok keyed transform: each out[i] is built from its own cols set and sorted before use
	for i, cols := range live {
		for c := range cols {
			out[i] = append(out[i], c)
		}
		sort.Strings(out[i])
	}
	return out
}

// compressThreshold skips compression for small intermediates.
const compressThreshold = 1024

// compress merges tuples that agree on every live column, summing their
// multiplicities. Projection queries are exempt: merging reorders tuples,
// and their output is defined by scan/join row order.
func compress(q *Query, inter *intermediate, states []*scanState, remaining []int) *intermediate {
	if len(q.Select) > 0 || len(inter.tuples) < compressThreshold {
		return inter
	}
	live := liveColumns(q, inter, remaining)
	var width int
	for _, cols := range live {
		width += len(cols)
	}
	type slot struct {
		sig []types.Datum
		idx int
	}
	merged := make(map[uint64][]slot, len(inter.tuples)/4)
	out := &intermediate{tabs: inter.tabs, pos: inter.pos}
	sig := make([]types.Datum, 0, width)
	for ti, tuple := range inter.tuples {
		sig = sig[:0]
		for _, tabIdx := range inter.tabs {
			for _, col := range live[tabIdx] {
				sig = append(sig, states[tabIdx].value(col, tuple[inter.pos[tabIdx]]))
			}
		}
		h := hashKey(sig)
		found := false
		for _, s := range merged[h] {
			if keysEqual(s.sig, sig) {
				out.counts[s.idx] += inter.counts[ti]
				found = true
				break
			}
		}
		if !found {
			cp := make([]types.Datum, len(sig))
			copy(cp, sig)
			merged[h] = append(merged[h], slot{sig: cp, idx: len(out.tuples)})
			out.tuples = append(out.tuples, tuple)
			out.counts = append(out.counts, inter.counts[ti])
		}
	}
	return out
}

// joinEntry is one build-side row of a hash join; it keeps the key datums
// for exact matching so hash collisions never join unequal keys.
type joinEntry struct {
	key []types.Datum
	row int32
}

// hashJoin joins the intermediate with one new table over the given
// conditions (Left side = intermediate, Right side = new table). The build
// side is constructed serially; the probe runs over tuple chunks, with
// per-chunk output partitions concatenated in chunk order.
func hashJoin(q *Query, inter *intermediate, states []*scanState, next int, conds []JoinCond, bindingIdx map[string]int, m *Metrics, ex *execCtx) (*intermediate, error) {
	st := states[next]

	build := make(map[uint64][]joinEntry, len(st.rows))
	for _, row := range st.rows {
		key := make([]types.Datum, len(conds))
		for k, c := range conds {
			key[k] = st.value(c.RightCol, row)
		}
		h := hashKey(key)
		build[h] = append(build[h], joinEntry{key: key, row: row})
	}

	out := &intermediate{tabs: append(append([]int(nil), inter.tabs...), next), pos: map[int]int{}}
	for i, t := range out.tabs {
		out.pos[t] = i
	}
	tuples, counts, ok := probe(inter, states, build, conds, bindingIdx, ex)
	if !ok {
		return nil, fmt.Errorf("engine: join intermediate exceeds %d rows", int64(MaxIntermediateRows))
	}
	out.tuples, out.counts = tuples, counts
	m.RowsMaterialized += int64(len(out.tuples))
	return out, nil
}

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

// executeAggregation folds the joined relation through the aggregation
// hash table (or a single accumulator when there is no GROUP BY). Workers
// accumulate into per-worker tables sized from the NDV estimate divided by
// the worker count, then merge.
func (e *Engine) executeAggregation(q *Query, p *Plan, states []*scanState, inter *intermediate, m *Metrics, ex *execCtx) *Result {
	res := &Result{}
	for _, item := range q.Stmt.Items {
		res.Columns = append(res.Columns, item.String())
	}

	if len(q.GroupBy) == 0 {
		m.InitialAggCapacity = 0
		res.Rows = [][]types.Datum{buildOutputRow(q, nil, globalAgg(q, states, inter, ex))}
		return res
	}

	m.InitialAggCapacity = p.AggCapacity
	table, resizes := groupedAgg(q, p, states, inter, ex)
	m.HashResizes += resizes
	for _, slot := range table.slots {
		if slot.used {
			res.Rows = append(res.Rows, buildOutputRow(q, slot.key, slot.accs))
		}
	}
	sortRows(res.Rows)
	if q.Limit > 0 && len(res.Rows) > q.Limit {
		res.Rows = res.Rows[:q.Limit]
	}
	return res
}

// boundCol is a ColRef resolved against an intermediate: which tuple
// position and table index to read.
type boundCol struct {
	pos int
	tab int
	col string
}

// executeProjection materializes the projected columns of the surviving
// tuples — the late-materialization endpoint: selection vectors become
// output rows only here. Rows come back in scan/join order (scans emit
// ascending row ids; join partitions concatenate in chunk order), which is
// deterministic at any worker count, so no sort runs; LIMIT truncates.
func (e *Engine) executeProjection(q *Query, states []*scanState, inter *intermediate) *Result {
	res := &Result{}
	for _, item := range q.Stmt.Items {
		res.Columns = append(res.Columns, item.String())
	}
	bound := make([]boundCol, len(q.Select))
	for i, ref := range q.Select {
		found := false
		for k, tabIdx := range inter.tabs {
			if q.Tables[tabIdx].Binding == ref.Tab {
				bound[i] = boundCol{pos: k, tab: tabIdx, col: ref.Col}
				found = true
				break
			}
		}
		if !found {
			panic("engine: unresolved column " + ref.String())
		}
	}
	for ti, tuple := range inter.tuples {
		for c := inter.counts[ti]; c > 0; c-- {
			row := make([]types.Datum, len(bound))
			for i, bc := range bound {
				row[i] = states[bc.tab].value(bc.col, tuple[bc.pos])
			}
			res.Rows = append(res.Rows, row)
			if q.Limit > 0 && len(res.Rows) >= q.Limit {
				return res
			}
		}
	}
	return res
}

func buildOutputRow(q *Query, key []types.Datum, accs []aggAcc) []types.Datum {
	row := make([]types.Datum, len(q.outPlan))
	for i, item := range q.outPlan {
		if item.isAgg {
			row[i] = accs[item.aggIdx].result(q.Aggs[item.aggIdx].Kind)
		} else {
			row[i] = key[item.groupIdx]
		}
	}
	return row
}

// sortRows orders result rows deterministically. Cells of incomparable
// kinds (string vs numeric, or distinct nested kinds) order by kind rather
// than panicking in Datum.Compare, so mixed-kind result sets still sort
// the same way every run.
func sortRows(rows [][]types.Datum) {
	sort.Slice(rows, func(i, j int) bool {
		a, b := rows[i], rows[j]
		for k := range a {
			if a[k].K != b[k].K && !(a[k].IsNumeric() && b[k].IsNumeric()) {
				return a[k].K < b[k].K
			}
			if c := a[k].Compare(b[k]); c != 0 {
				return c < 0
			}
		}
		return false
	})
}

// distinctSet is an exact COUNT DISTINCT accumulator: keys are grouped by
// 64-bit hash but the actual datums are chained and compared on collision,
// so colliding datums never silently undercount the exact answer.
type distinctSet struct {
	groups map[uint64][][]types.Datum
	n      int
}

func newDistinctSet() *distinctSet {
	return &distinctSet{groups: map[uint64][][]types.Datum{}}
}

// add inserts key (copied) under hash h if no equal key is chained there.
func (s *distinctSet) add(h uint64, key []types.Datum) {
	for _, k := range s.groups[h] {
		if keysEqual(k, key) {
			return
		}
	}
	cp := make([]types.Datum, len(key))
	copy(cp, key)
	s.groups[h] = append(s.groups[h], cp)
	s.n++
}

// merge folds another set's members into s.
func (s *distinctSet) merge(o *distinctSet) {
	//bytecard:unordered-ok groups are keyed by hash; each hash chain merges independently and set semantics ignore insertion order
	for h, chain := range o.groups {
		for _, k := range chain {
			s.add(h, k)
		}
	}
}

// aggAcc accumulates one aggregate for one group.
type aggAcc struct {
	count    int64
	sum      float64
	min, max types.Datum
	seen     bool
	distinct *distinctSet
}

func newAccs(aggs []AggSpec) []aggAcc {
	accs := make([]aggAcc, len(aggs))
	for i, a := range aggs {
		if a.Kind == AggCountDistinct {
			accs[i].distinct = newDistinctSet()
		}
	}
	return accs
}

func updateAccs(accs []aggAcc, aggs []AggSpec, fetch func(ColRef, []int32) types.Datum, tuple []int32, mult int64) {
	for i := range aggs {
		acc := &accs[i]
		switch aggs[i].Kind {
		case AggCountStar:
			acc.count += mult
		case AggCountDistinct:
			key := make([]types.Datum, len(aggs[i].Cols))
			var h uint64 = 1469598103934665603
			for k, c := range aggs[i].Cols {
				key[k] = fetch(c, tuple)
				h = h*1099511628211 ^ key[k].Hash64()
			}
			acc.distinct.add(h, key)
		case AggSum, AggAvg:
			v := fetch(aggs[i].Cols[0], tuple)
			acc.sum += v.AsFloat() * float64(mult)
			acc.count += mult
		case AggMin, AggMax:
			v := fetch(aggs[i].Cols[0], tuple)
			if !acc.seen {
				acc.min, acc.max, acc.seen = v, v, true
			} else {
				if v.Less(acc.min) {
					acc.min = v
				}
				if acc.max.Less(v) {
					acc.max = v
				}
			}
		}
	}
}

func (a *aggAcc) result(kind AggKind) types.Datum {
	switch kind {
	case AggCountStar:
		return types.Int(a.count)
	case AggCountDistinct:
		return types.Int(int64(a.distinct.n))
	case AggSum:
		return types.Float(a.sum)
	case AggAvg:
		if a.count == 0 {
			return types.Float(0)
		}
		return types.Float(a.sum / float64(a.count))
	case AggMin:
		return a.min
	case AggMax:
		return a.max
	default:
		panic("engine: unknown aggregate kind")
	}
}

// aggTable is an open-addressing hash table with linear probing that counts
// its resize events — the observable the paper's aggregation optimization
// reduces by presizing from RBX's NDV estimate.
type aggTable struct {
	slots   []aggSlot
	used    int
	resizes int
}

type aggSlot struct {
	h    uint64
	key  []types.Datum
	accs []aggAcc
	used bool
}

// aggLoadFactor triggers growth.
const aggLoadFactor = 0.7

func newAggTable(expectedGroups int) *aggTable {
	if expectedGroups < 1 {
		expectedGroups = 1
	}
	n := nextPow2(int(float64(expectedGroups)/aggLoadFactor) + 1)
	if n < 16 {
		n = 16
	}
	return &aggTable{slots: make([]aggSlot, n)}
}

func nextPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// lookup finds or inserts the group for key, copying the key on insert.
func (t *aggTable) lookup(key []types.Datum, mk func() []aggAcc) []aggAcc {
	return t.lookupHash(hashKey(key), key, mk)
}

// lookupHash is lookup with a caller-supplied hash — the merge phase
// reuses stored slot hashes, and tests inject colliding hashes to exercise
// chain behaviour.
func (t *aggTable) lookupHash(h uint64, key []types.Datum, mk func() []aggAcc) []aggAcc {
	if float64(t.used+1) > aggLoadFactor*float64(len(t.slots)) {
		t.grow()
	}
	mask := uint64(len(t.slots) - 1)
	i := h & mask
	for {
		s := &t.slots[i]
		if !s.used {
			kc := make([]types.Datum, len(key))
			copy(kc, key)
			*s = aggSlot{h: h, key: kc, accs: mk(), used: true}
			t.used++
			return s.accs
		}
		if s.h == h && keysEqual(s.key, key) {
			return s.accs
		}
		i = (i + 1) & mask
	}
}

// absorb merges another table's groups into t (the parallel aggregation's
// merge phase), combining accumulators group by group.
func (t *aggTable) absorb(o *aggTable, aggs []AggSpec) {
	for i := range o.slots {
		s := &o.slots[i]
		if !s.used {
			continue
		}
		accs := t.lookupHash(s.h, s.key, func() []aggAcc { return newAccs(aggs) })
		mergeAccs(accs, s.accs, aggs)
	}
}

// mergeAccs combines src's accumulators into dst (dst may be freshly
// zeroed, in which case the merge equals a copy).
func mergeAccs(dst, src []aggAcc, aggs []AggSpec) {
	for i := range aggs {
		d, s := &dst[i], &src[i]
		switch aggs[i].Kind {
		case AggCountStar:
			d.count += s.count
		case AggCountDistinct:
			d.distinct.merge(s.distinct)
		case AggSum, AggAvg:
			d.sum += s.sum
			d.count += s.count
		case AggMin, AggMax:
			if !s.seen {
				continue
			}
			if !d.seen {
				d.min, d.max, d.seen = s.min, s.max, true
				continue
			}
			if s.min.Less(d.min) {
				d.min = s.min
			}
			if d.max.Less(s.max) {
				d.max = s.max
			}
		}
	}
}

// grow doubles the table and rehashes every entry — the resize cost the
// presizing optimization avoids.
func (t *aggTable) grow() {
	t.resizes++
	old := t.slots
	t.slots = make([]aggSlot, len(old)*2)
	t.used = 0
	mask := uint64(len(t.slots) - 1)
	for _, s := range old {
		if !s.used {
			continue
		}
		i := s.h & mask
		for t.slots[i].used {
			i = (i + 1) & mask
		}
		t.slots[i] = s
		t.used++
	}
}
