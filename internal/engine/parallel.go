// Morsel-driven execution: each scan's row space is split into
// block-aligned morsels dispatched to a worker pool, hash-join probes run
// over tuple chunks with per-chunk output partitions concatenated in chunk
// order, and aggregation accumulates into per-worker hash tables merged in
// worker order. Every operator body runs only through par.Chunks or
// par.Strided, whose one-worker case is a plain serial loop, so a small
// input or Parallelism=1 takes the same body as a wide fan-out. Concurrent
// workers read through sibling storage.Readers that share an atomic
// block-charge set, so IOStats.BlocksRead is identical at any worker
// count; chunk-indexed outputs make Result rows byte-identical.
package engine

import (
	"sync/atomic"
	"time"

	"bytecard/internal/expr"
	"bytecard/internal/obs"
	"bytecard/internal/par"
	"bytecard/internal/storage"
	"bytecard/internal/types"
)

// MorselBlocks is the number of storage blocks per scan morsel. Morsel
// boundaries are block aligned so that, during a scan, each block belongs
// to exactly one worker; the shared charge set extends the
// charge-each-block-once invariant to later phases that revisit blocks.
const MorselBlocks = 2

// morselRows is the row span of one scan morsel.
const morselRows = MorselBlocks * storage.BlockSize

// tupleChunk is the unit of parallel work over intermediate tuples (join
// probe and aggregation input).
const tupleChunk = 2048

// execCtx carries per-query execution context: the resolved worker count
// and an optional trace receiving one span per execution phase.
type execCtx struct {
	workers int
	tr      *obs.Trace
}

// span records one execution phase: which tables it covered, how many
// workers ran it, and how many rows it produced.
func (ex *execCtx) span(op string, tables []string, workers int, rows int64, d time.Duration) {
	if ex == nil || !ex.tr.Active() {
		return
	}
	ex.tr.Add(obs.Span{
		Op: op, Tables: tables, Source: "engine", Outcome: obs.OutcomeOK,
		Workers: workers, Value: float64(rows), Duration: d,
	})
}

// fanout is the worker count for a phase of chunks chunks: the query's
// workers clamped to the chunk count, and never below one.
func (ex *execCtx) fanout(chunks int) int {
	w := ex.workers
	if w > chunks {
		w = chunks
	}
	if w < 1 {
		w = 1
	}
	return w
}

// Chunk dispatch lives in internal/par (par.Chunks dynamic, par.Strided
// static): the pool package is the repo's one goroutine source, so worker
// accounting and scheduling determinism stay centralized there.

// chunkBounds returns the [lo, hi) item range of chunk c.
func chunkBounds(n, size, c int) (int, int) {
	lo := c * size
	hi := lo + size
	if hi > n {
		hi = n
	}
	return lo, hi
}

// numChunks is the chunk count of n items; an empty input has none, even
// when size is zero (a LIMIT scan's single chunk spans an empty table).
func numChunks(n, size int) int {
	if n <= 0 {
		return 0
	}
	return (n + size - 1) / size
}

// rowRange returns the row ids lo..hi-1.
func rowRange(lo, hi int) []int32 {
	rows := make([]int32, hi-lo)
	for i := range rows {
		rows[i] = int32(lo + i)
	}
	return rows
}

// concat concatenates chunk-indexed output parts in chunk order; a single
// part is returned as is.
func concat[T any](parts [][]T) []T {
	if len(parts) == 1 {
		return parts[0]
	}
	total := 0
	for _, p := range parts {
		total += len(p)
	}
	out := make([]T, 0, total)
	for _, p := range parts {
		out = append(out, p...)
	}
	return out
}

// scanChunks runs body over the size-item chunks of n items of one table
// through par.Chunks, handing each call its worker's view, and returns the
// chunks' row ids concatenated in chunk order.
func (ex *execCtx) scanChunks(st *scanState, n, size int, body func(v *workerView, lo, hi int) []int32) []int32 {
	chunks := numChunks(n, size)
	workers := ex.fanout(chunks)
	views := make([]*workerView, workers)
	for w := range views {
		views[w] = newWorkerView(st, workers == 1)
	}
	parts := make([][]int32, chunks)
	par.Chunks(workers, chunks, func(w, c int) {
		lo, hi := chunkBounds(n, size, c)
		parts[c] = body(views[w], lo, hi)
	})
	return concat(parts)
}

// workerView is one worker's window onto a scanState. A lone worker reads
// the state's own readers; each of several concurrent workers reads
// sibling readers (created under the state's lock, used lock-free
// afterwards) that share the canonical readers' block-charge sets.
type workerView struct {
	st *scanState
	// readers holds the worker's siblings; nil means the lone worker
	// reading st's own readers.
	readers map[string]*storage.Reader
}

func newWorkerView(st *scanState, solo bool) *workerView {
	if solo {
		return &workerView{st: st}
	}
	return &workerView{st: st, readers: map[string]*storage.Reader{}}
}

func (w *workerView) reader(col string) *storage.Reader {
	if w.readers == nil {
		return w.st.reader(col)
	}
	if r, ok := w.readers[col]; ok {
		return r
	}
	r := w.st.sibling(col)
	w.readers[col] = r
	return r
}

func (w *workerView) value(col string, row int32) types.Datum {
	return w.reader(col).Value(int(row))
}

// multiView is one worker's window across every scanned table — the probe
// and aggregation phases read several tables per tuple.
type multiView struct {
	states []*scanState
	views  []*workerView
	solo   bool
}

// multiViews returns one multiView per worker.
func multiViews(states []*scanState, workers int) []*multiView {
	out := make([]*multiView, workers)
	for w := range out {
		out[w] = &multiView{states: states, views: make([]*workerView, len(states)), solo: workers == 1}
	}
	return out
}

func (v *multiView) value(tab int, col string, row int32) types.Datum {
	w := v.views[tab]
	if w == nil {
		w = newWorkerView(v.states[tab], v.solo)
		v.views[tab] = w
	}
	return w.value(col, row)
}

// stageFilter applies the staged constraint order to rows, filtering in
// place and touching each column's blocks only where candidates remain.
// cons[i] constrains column cols[i].
func stageFilter(reader func(string) *storage.Reader, cols []string, cons []expr.Constraint, rows []int32) []int32 {
	for i, c := range cols {
		if cons[i].Empty {
			return nil
		}
		r := reader(c)
		kept := rows[:0]
		for _, row := range rows {
			if cons[i].Contains(r.Numeric(int(row))) {
				kept = append(kept, row)
			}
		}
		rows = kept
		if len(rows) == 0 {
			break
		}
	}
	return rows
}

// evalFilter keeps, in place, the rows satisfying the full filter tree
// (nil keeps every row), evaluated row-at-a-time through v.
func evalFilter(v *workerView, filter *expr.Node, rows []int32) []int32 {
	if filter == nil {
		return rows
	}
	kept := rows[:0]
	for _, row := range rows {
		if filter.Eval(func(_, col string) types.Datum { return v.value(col, row) }) {
			kept = append(kept, row)
		}
	}
	return kept
}

// probe probes the read-only build side over chunks of the
// intermediate's tuples. Per-chunk partitions concatenated in chunk order
// reproduce the serial probe's output order (each build key keeps its rows
// in build order, so per-key match order is identical too). It reports
// false when the output exceeds MaxIntermediateRows.
func probe(inter *intermediate, states []*scanState, build *joinBuild, conds []JoinCond, bindingIdx map[string]int, ex *execCtx) ([][]int32, []int64, bool) {
	n := len(inter.tuples)
	chunks := numChunks(n, tupleChunk)
	views := multiViews(states, ex.fanout(chunks))
	tuples, counts := make([][][]int32, chunks), make([][]int64, chunks)
	var total atomic.Int64
	var overflow atomic.Bool
	par.Chunks(len(views), chunks, func(w, c int) {
		if overflow.Load() {
			return
		}
		lo, hi := chunkBounds(n, tupleChunk, c)
		view := views[w]
		probeKey := make([]types.Datum, len(conds))
		var partTuples [][]int32
		var partCounts []int64
		for ti := lo; ti < hi; ti++ {
			tuple := inter.tuples[ti]
			for k, cond := range conds {
				lt := bindingIdx[cond.LeftTab]
				probeKey[k] = view.value(lt, cond.LeftCol, tuple[inter.pos[lt]])
			}
			g, _ := build.keys.find(hashKey(probeKey), probeKey)
			if g < 0 {
				continue
			}
			matches := build.rowsOf(g)
			for _, row := range matches {
				combined := make([]int32, len(tuple)+1)
				copy(combined, tuple)
				combined[len(tuple)] = row
				partTuples = append(partTuples, combined)
				partCounts = append(partCounts, inter.counts[ti])
			}
			if total.Add(int64(len(matches))) > MaxIntermediateRows {
				overflow.Store(true)
				return
			}
		}
		tuples[c], counts[c] = partTuples, partCounts
	})
	if overflow.Load() {
		return nil, nil, false
	}
	return concat(tuples), concat(counts), true
}

// groupedAgg accumulates the joined relation into per-worker key tables —
// each presized to the NDV estimate divided by the worker count, with group
// g's accumulators at accs[g] — then absorbs them into the first worker's
// table in worker order. Without GROUP BY the key is empty, so every tuple
// lands in one group. The per-table resize counters (own growth plus
// merge-phase growth) sum into Metrics.HashResizes, keeping the presizing
// experiment meaningful under parallelism.
func groupedAgg(q *Query, p *Plan, states []*scanState, inter *intermediate, ex *execCtx) (*keyTable, [][]aggAcc, int64) {
	n := len(inter.tuples)
	chunks := numChunks(n, tupleChunk)
	workers := ex.fanout(chunks)
	perWorkerCap := p.AggCapacity / workers
	tables := make([]*keyTable, workers)
	accs := make([][][]aggAcc, workers)
	for w := range tables {
		tables[w] = newKeyTable(len(q.GroupBy), perWorkerCap)
	}
	views := multiViews(states, workers)
	par.Strided(workers, chunks, func(w, c int) {
		table, fetch := tables[w], fetcher(q, inter, views[w])
		key := make([]types.Datum, len(q.GroupBy))
		var scratch []types.Datum
		lo, hi := chunkBounds(n, tupleChunk, c)
		for ti := lo; ti < hi; ti++ {
			tuple := inter.tuples[ti]
			for i, g := range q.GroupBy {
				key[i] = fetch(g, tuple)
			}
			g, added := table.insert(hashKey(key), key)
			if added {
				accs[w] = append(accs[w], newAccs(q.Aggs))
			}
			updateAccs(accs[w][g], q.Aggs, fetch, tuple, inter.counts[ti], &scratch)
		}
	})
	final := tables[0]
	var resizes int64
	for w, t := range tables[1:] {
		resizes += int64(t.resizes)
		accs[0] = absorb(final, accs[0], t, accs[w+1], q.Aggs)
	}
	return final, accs[0], resizes + int64(final.resizes)
}

// fetcher returns a reader of group keys and aggregate inputs through
// view, resolving each column's binding against the intermediate's few
// tables.
func fetcher(q *Query, inter *intermediate, view *multiView) func(ColRef, []int32) types.Datum {
	return func(ref ColRef, tuple []int32) types.Datum {
		for k, ti := range inter.tabs {
			if q.Tables[ti].Binding == ref.Tab {
				return view.value(ti, ref.Col, tuple[k])
			}
		}
		panic("engine: unresolved column " + ref.String())
	}
}
