package main

import (
	"bufio"
	"encoding/json"
	"os"
	"time"

	"bytecard/internal/engine"
	"bytecard/internal/expr"
	"bytecard/internal/obs"
)

// span is one timed call into a layer, recorded by the benchmark around a
// public function. Spans of one op share Op; Parent indexes the enclosing
// span (-1 for the op itself). Start and End are nanoseconds since the
// recorder was created.
type span struct {
	Name   string `json:"name"`
	Op     int    `json:"op"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// recorder keeps every span of a traced run in memory; write dumps them
// when the run ends. It is used from the single client goroutine only.
type recorder struct {
	t0    time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

func (r *recorder) now() int64 { return int64(time.Since(r.t0)) }

// begin opens a span and returns its index.
func (r *recorder) begin(name string, op, parent int) int {
	r.spans = append(r.spans, span{Name: name, Op: op, Parent: parent, Start: r.now()})
	return len(r.spans) - 1
}

func (r *recorder) end(i int) { r.spans[i].End = r.now() }

// addExecPhases turns the executor's own top-level phase records
// (exec_scan, exec_join, exec_agg) into children of the execute span. The
// executor records durations only, so the phases are laid end to end from
// the parent's start. Nested detail records (scan_pushdown) are skipped:
// their time is already inside a phase.
func (r *recorder) addExecPhases(tr *obs.Trace, op, parent int) {
	at := r.spans[parent].Start
	for _, s := range tr.Spans() {
		switch s.Op {
		case obs.OpExecScan, obs.OpExecJoin, obs.OpExecAgg:
			r.spans = append(r.spans, span{Name: "engine." + s.Op, Op: op, Parent: parent, Start: at, End: at + int64(s.Duration)})
			at += int64(s.Duration)
		}
	}
}

// write dumps the spans as JSON lines.
func (r *recorder) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Span names of the estimator families, as the timing wrapper records them.
const (
	spanFilter  = "bn.filter"
	spanConj    = "bn.conj"
	spanJoin    = "factorjoin.join"
	spanBatch   = "factorjoin.batch"
	spanNDV     = "rbx.groupndv"
	spanParse   = "sqlparse.parse"
	spanAnalyze = "engine.analyze"
	spanPlan    = "engine.plan"
	spanExec    = "engine.exec"
	spanOp      = "op"
)

// estCounts counts the wrapper's calls by family.
type estCounts struct {
	filter, conj, join, batch, batchItems, ndv int64
}

func (c estCounts) total() int64 { return c.filter + c.conj + c.join + c.batch + c.ndv }

// timedEst wraps the engine's estimator, recording a span around every
// call as a child of the current plan span. Values pass through untouched.
type timedEst struct {
	inner  engine.CardEstimator
	rec    *recorder
	op     int
	parent int
	n      estCounts
}

func (t *timedEst) Name() string { return t.inner.Name() }

func (t *timedEst) EstimateFilter(qt *engine.QueryTable) float64 {
	i := t.rec.begin(spanFilter, t.op, t.parent)
	v := t.inner.EstimateFilter(qt)
	t.rec.end(i)
	t.n.filter++
	return v
}

func (t *timedEst) EstimateConj(qt *engine.QueryTable, preds []expr.Pred) float64 {
	i := t.rec.begin(spanConj, t.op, t.parent)
	v := t.inner.EstimateConj(qt, preds)
	t.rec.end(i)
	t.n.conj++
	return v
}

func (t *timedEst) EstimateJoin(tables []*engine.QueryTable, joins []engine.JoinCond) float64 {
	i := t.rec.begin(spanJoin, t.op, t.parent)
	v := t.inner.EstimateJoin(tables, joins)
	t.rec.end(i)
	t.n.join++
	return v
}

func (t *timedEst) EstimateGroupNDV(q *engine.Query) float64 {
	i := t.rec.begin(spanNDV, t.op, t.parent)
	v := t.inner.EstimateGroupNDV(q)
	t.rec.end(i)
	t.n.ndv++
	return v
}

// timedBatchEst adds the batched join path. The planner only takes its
// batched join-order DP when the estimator implements
// engine.BatchCardEstimator, so the wrapper must forward it whenever the
// wrapped estimator has it, or the traced run would plan differently.
type timedBatchEst struct {
	*timedEst
	batch engine.BatchCardEstimator
}

func (t timedBatchEst) EstimateJoinBatch(items []engine.JoinBatchItem, parallelism int) []float64 {
	i := t.rec.begin(spanBatch, t.op, t.parent)
	v := t.batch.EstimateJoinBatch(items, parallelism)
	t.rec.end(i)
	t.n.batch++
	t.n.batchItems += int64(len(items))
	return v
}

// wrapEstimator returns the timing wrapper for est and the handle through
// which the client sets the current op and plan span.
func wrapEstimator(est engine.CardEstimator, rec *recorder) (engine.CardEstimator, *timedEst) {
	t := &timedEst{inner: est, rec: rec, parent: -1}
	if b, ok := est.(engine.BatchCardEstimator); ok {
		return timedBatchEst{timedEst: t, batch: b}, t
	}
	return t, t
}
