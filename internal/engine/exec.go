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
		var sip *keyTable
		if !e.DisableSIP {
			sip = newKeyTable(len(conds), len(inter.tuples))
			key := make([]types.Datum, len(conds))
			for _, tuple := range inter.tuples {
				for k, c := range conds {
					lt := bindingIdx[c.LeftTab]
					key[k] = states[lt].value(c.LeftCol, tuple[inter.pos[lt]])
				}
				sip.insert(hashKey(key), key)
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
func (e *Engine) scanForJoin(q *Query, p *Plan, states []*scanState, next int, conds []JoinCond, sip *keyTable, m *Metrics, ex *execCtx) error {
	sp := p.Scans[next]
	t := q.Tables[next]
	n := t.Table.NumRows()
	sipFirst := sip != nil && float64(sip.Len()) < sipFirstFraction*float64(n)
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
			if g, _ := sip.find(hashKey(key), key); g >= 0 {
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
	merged := newKeyTable(width, len(inter.tuples)/4)
	out := &intermediate{tabs: inter.tabs, pos: inter.pos}
	sig := make([]types.Datum, 0, width)
	for ti, tuple := range inter.tuples {
		sig = sig[:0]
		for _, tabIdx := range inter.tabs {
			for _, col := range live[tabIdx] {
				sig = append(sig, states[tabIdx].value(col, tuple[inter.pos[tabIdx]]))
			}
		}
		// The group id is the output tuple index.
		if g, added := merged.insert(hashKey(sig), sig); added {
			out.tuples = append(out.tuples, tuple)
			out.counts = append(out.counts, inter.counts[ti])
		} else {
			out.counts[g] += inter.counts[ti]
		}
	}
	return out
}

// joinBuild is a hash join's build side: one key group per distinct build
// key, whose rows, in build order, are rows[start[g]:start[g+1]].
type joinBuild struct {
	keys        *keyTable
	start, rows []int32
}

// newJoinBuild files each build row rows[i] under its key group groups[i].
// The counting sort is stable, so every key keeps its rows in build order.
func newJoinBuild(keys *keyTable, rows, groups []int32) *joinBuild {
	b := &joinBuild{keys: keys, start: make([]int32, keys.Len()+1), rows: make([]int32, len(rows))}
	for _, g := range groups {
		b.start[g+1]++
	}
	for g := 1; g < len(b.start); g++ {
		b.start[g] += b.start[g-1]
	}
	fill := append([]int32(nil), b.start...)
	for i, g := range groups {
		b.rows[fill[g]] = rows[i]
		fill[g]++
	}
	return b
}

// rowsOf returns key group g's rows in build order.
func (b *joinBuild) rowsOf(g int) []int32 { return b.rows[b.start[g]:b.start[g+1]] }

// hashJoin joins the intermediate with one new table over the given
// conditions (Left side = intermediate, Right side = new table). The build
// side is constructed serially; the probe runs over tuple chunks, with
// per-chunk output partitions concatenated in chunk order.
func hashJoin(q *Query, inter *intermediate, states []*scanState, next int, conds []JoinCond, bindingIdx map[string]int, m *Metrics, ex *execCtx) (*intermediate, error) {
	st := states[next]

	keys := newKeyTable(len(conds), len(st.rows))
	groups := make([]int32, len(st.rows))
	key := make([]types.Datum, len(conds))
	for i, row := range st.rows {
		for k, c := range conds {
			key[k] = st.value(c.RightCol, row)
		}
		g, _ := keys.insert(hashKey(key), key)
		groups[i] = int32(g)
	}
	build := newJoinBuild(keys, st.rows, groups)

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

// executeAggregation folds the joined relation through the aggregation
// hash table (one group when there is no GROUP BY). Workers accumulate
// into per-worker tables sized from the NDV estimate divided by the worker
// count, then merge.
func (e *Engine) executeAggregation(q *Query, p *Plan, states []*scanState, inter *intermediate, m *Metrics, ex *execCtx) *Result {
	res := &Result{}
	for _, item := range q.Stmt.Items {
		res.Columns = append(res.Columns, item.String())
	}
	m.InitialAggCapacity = p.AggCapacity
	table, accs, resizes := groupedAgg(q, p, states, inter, ex)
	m.HashResizes += resizes
	for g, a := range accs {
		res.Rows = append(res.Rows, buildOutputRow(q, table.key(g), a))
	}
	if len(q.GroupBy) == 0 && len(accs) == 0 {
		// An empty input still has its one global row.
		res.Rows = [][]types.Datum{buildOutputRow(q, nil, newAccs(q.Aggs))}
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

// aggAcc accumulates one aggregate for one group.
type aggAcc struct {
	count    int64
	sum      float64
	min, max types.Datum
	seen     bool
	// distinct is the exact COUNT DISTINCT set.
	distinct *keyTable
}

func newAccs(aggs []AggSpec) []aggAcc {
	accs := make([]aggAcc, len(aggs))
	for i, a := range aggs {
		if a.Kind == AggCountDistinct {
			accs[i].distinct = newKeyTable(len(a.Cols), 0)
		}
	}
	return accs
}

// updateAccs folds one tuple of multiplicity mult into accs. scratch is
// the caller's reusable COUNT DISTINCT key buffer.
func updateAccs(accs []aggAcc, aggs []AggSpec, fetch func(ColRef, []int32) types.Datum, tuple []int32, mult int64, scratch *[]types.Datum) {
	for i := range aggs {
		acc := &accs[i]
		switch aggs[i].Kind {
		case AggCountStar:
			acc.count += mult
		case AggCountDistinct:
			key := (*scratch)[:0]
			for _, c := range aggs[i].Cols {
				key = append(key, fetch(c, tuple))
			}
			*scratch = key
			acc.distinct.insert(hashKey(key), key)
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
		return types.Int(int64(a.distinct.Len()))
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

// absorb merges worker table o, whose group g accumulates into oaccs[g],
// into t and its accumulators accs (the parallel aggregation's merge
// phase), walking o's groups in id order and reusing their stored hashes.
// It returns accs, grown by t's new groups.
func absorb(t *keyTable, accs [][]aggAcc, o *keyTable, oaccs [][]aggAcc, aggs []AggSpec) [][]aggAcc {
	for g, h := range o.hashes {
		id, added := t.insert(h, o.key(g))
		if added {
			accs = append(accs, newAccs(aggs))
		}
		mergeAccs(accs[id], oaccs[g], aggs)
	}
	return accs
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
