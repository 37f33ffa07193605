package main

import (
	"fmt"
	"path/filepath"
	"slices"
	"time"

	"bytecard/internal/engine"
	"bytecard/internal/obs"
	"bytecard/internal/sqlparse"
)

// execCounters sums the executor's per-query counters over executed ops.
type execCounters struct {
	n                                    int
	rows, resizes, sip, workers          int64
	blocksRead, blocksSkipped, bytesRead int64
}

func (c *execCounters) add(m engine.Metrics) {
	c.n++
	c.rows += m.RowsMaterialized
	c.resizes += m.HashResizes
	c.sip += m.SIPPruned
	c.workers += int64(m.ParallelWorkers)
	c.blocksRead += m.IO.BlocksRead()
	c.blocksSkipped += m.IO.BlocksSkipped()
	c.bytesRead += m.IO.BytesRead()
}

// tracedPlan is a traced op whose plan was made fresh (a plan-cache miss),
// kept to re-plan untraced after the loop and compare join orders.
type tracedPlan struct {
	sql       string
	q         *engine.Query
	joinOrder []int
}

// layerRun is the run behind the -trace 1 metrics. Its first half is the
// traced loop: each op calls sqlparse.Parse, Engine.Analyze, Engine.Plan
// and (for executed workloads) Engine.ExecuteTraced one by one, with the
// engine's estimator swapped for the timing wrapper, and the benchmark
// records a span around every call. Its second half repeats the untraced
// loop, whose throughput against the traced loop's is the tracing
// overhead. The second half starts after the spans are written out and
// dropped, and defers its checks, so that its runtime counters carry
// neither the tracer's nor the checker's allocations.
func (r *runner) layerRun(res *result, times []setupTimes, truths []truth) error {
	rec := newRecorder()
	view := *r.sys.Engine
	wrapped, te := wrapEstimator(r.sys.Engine.Est, rec)
	view.Est = wrapped

	win := r.window()
	var sampleIdx map[int]bool
	if r.sp.sample > 0 {
		sampleIdx = r.sampleSet()
	}
	var (
		sampled   []planned
		fresh     []tracedPlan
		exec      execCounters
		winEst    estCounts
		busy      time.Duration
		winClosed bool
	)
	m0 := r.sys.Metrics()
	m1 := m0
	closeWindow := func() {
		m1, winEst, winClosed = r.sys.Metrics(), te.n, true
	}
	half := r.budget / 2
	n := 0
	for ; r.more(n, busy, half, win); n++ {
		if n == win {
			closeWindow()
		}
		i, sql := n, r.nextSQL()
		r.attempted++
		start := time.Now()
		op := rec.begin(spanOp, i, -1)
		q, p, res, err := r.tracedOp(&view, te, rec, i, op, sql)
		rec.end(op)
		busy += time.Since(start)
		if err != nil {
			r.fail("traced %q: %v", sql, err)
			continue
		}
		if r.sp.pool == 0 && !p.CacheHit {
			fresh = append(fresh, tracedPlan{sql, q, p.JoinOrder})
		}
		if !r.sp.plan && !r.checkResult(sql, res, nil, i) {
			continue
		}
		switch {
		case r.sp.plan && sampleIdx[i]:
			sampled = append(sampled, planned{sql, q, p})
		case !r.sp.plan && i < win:
			exec.add(res.Metrics)
			if r.sp.pool == 0 {
				truths = append(truths, truth{sql, res.Metrics.ActualFinalRows})
			}
		}
	}
	if !winClosed {
		closeWindow()
	}
	tracedOps := n
	tracedRate := float64(tracedOps) / busy.Seconds()

	// The traced run must plan what the untraced path plans: every fresh
	// traced plan is re-planned cache-free with the engine's own estimator.
	// Pool statements are plan-cache hits in both paths, which share the
	// cache; their traced results are checked against the same reference
	// digests as the untraced ones.
	for _, f := range fresh {
		p, err := r.sys.Engine.PlanWith(f.q, r.sys.Engine.Est)
		if err != nil {
			r.fail("untraced re-plan %q: %v", f.sql, err)
			continue
		}
		if !slices.Equal(p.JoinOrder, f.joinOrder) {
			r.fail("traced %q: join order %v, untraced %v", f.sql, f.joinOrder, p.JoinOrder)
		}
	}
	// Plan-only ops: the seeded sample of the window's plans is executed,
	// traced, as top-level spans, and checked against the reference.
	for k, s := range sampled {
		es := rec.begin(spanExec, tracedOps+k, -1)
		tr := obs.NewTrace()
		out, err := r.sys.Engine.ExecuteTraced(s.p, tr)
		rec.end(es)
		rec.addExecPhases(tr, tracedOps+k, es)
		if r.checkResult(s.sql, out, err, -1) {
			exec.add(out.Metrics)
		}
	}
	joinOrderChecks := len(fresh)
	spans := totals(rec.spans)
	nSpans := len(rec.spans)
	if err := rec.write(filepath.Join(r.out, r.sp.name+"-spans.jsonl")); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	rec.spans = nil

	un := r.untracedLoop(half, tracedOps, 1, true, nil)

	qerrs, err := r.qerrors(truths)
	if err != nil {
		return err
	}
	// The q-errors are the end-to-end run's, reported here too so that
	// TestCountersRepeat can compare them across processes.
	res.Extra = append(qerrMetrics(qerrs), []metric{
		{"samples.traced_ops", float64(tracedOps), "count"},
		{"samples.untraced_ops", float64(len(un.lat)), "count"},
		{"samples.window_ops", float64(win), "count"},
		{"samples.executed_ops", float64(exec.n), "count"},
		{"samples.join_order_checks", float64(joinOrderChecks), "count"},
		{"samples.spans", float64(nSpans), "count"},
		{"samples.qerror_queries", float64(len(qerrs)), "count"},
	}...)
	res.Metrics = r.layerMetrics(times, spans, tracedOps, tracedRate, un, exec, winEst, m0.Caches, m1.Caches, m0.Estimator, m1.Estimator)
	return nil
}

// tracedOp runs one op layer by layer, recording a span around each call.
func (r *runner) tracedOp(view *engine.Engine, te *timedEst, rec *recorder, i, op int, sql string) (*engine.Query, *engine.Plan, *engine.Result, error) {
	s := rec.begin(spanParse, i, op)
	stmt, err := sqlparse.Parse(sql)
	rec.end(s)
	if err != nil {
		return nil, nil, nil, err
	}
	s = rec.begin(spanAnalyze, i, op)
	q, err := view.Analyze(stmt)
	rec.end(s)
	if err != nil {
		return nil, nil, nil, err
	}
	s = rec.begin(spanPlan, i, op)
	te.op, te.parent = i, s
	p, err := view.Plan(q)
	rec.end(s)
	if err != nil || r.sp.plan {
		return q, p, nil, err
	}
	s = rec.begin(spanExec, i, op)
	tr := obs.NewTrace()
	res, err := view.ExecuteTraced(p, tr)
	rec.end(s)
	rec.addExecPhases(tr, i, s)
	return q, p, res, err
}

// spanTotals sums each span name's duration and self time (duration minus
// the time its children cover) over a run, with its count.
type spanTotals map[string]*struct {
	n           int
	total, self time.Duration
}

func totals(spans []span) spanTotals {
	child := make([]time.Duration, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.dur()
		}
	}
	t := spanTotals{}
	for i, s := range spans {
		a := t[s.Name]
		if a == nil {
			a = &struct {
				n           int
				total, self time.Duration
			}{}
			t[s.Name] = a
		}
		a.n++
		a.total += s.dur()
		a.self += s.dur() - child[i]
	}
	return t
}

// us returns name's total (or self) time in microseconds per n ops.
func (t spanTotals) us(name string, self bool, n int) float64 {
	a := t[name]
	if a == nil || n == 0 {
		return 0
	}
	d := a.total
	if self {
		d = a.self
	}
	return float64(d.Nanoseconds()) / 1e3 / float64(n)
}

func (t spanTotals) count(name string) int {
	if a := t[name]; a != nil {
		return a.n
	}
	return 0
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func (r *runner) layerMetrics(times []setupTimes, t spanTotals, ops int, tracedRate float64, un loopStats,
	ex execCounters, est estCounts, c0, c1 map[string]obs.CacheSnapshot, e0, e1 obs.EstimatorSnapshot) []metric {
	var gen, train, other []float64
	for _, s := range times {
		gen = append(gen, s.gen)
		train = append(train, s.train)
		other = append(other, s.total-s.gen-s.train)
	}
	win := float64(r.window())
	execN := t.count(spanExec)
	perEx := func(v int64) float64 { return ratio(float64(v), float64(ex.n)) }
	plan0, plan1 := c0["plan"], c1["plan"]
	vec0, vec1 := c0["joinvec"], c1["joinvec"]
	planHits := float64(plan1.Hits - plan0.Hits)
	vecHits := float64(vec1.Hits - vec0.Hits)
	estUS := 0.0
	for _, name := range []string{spanFilter, spanConj, spanJoin, spanBatch, spanNDV} {
		estUS += t.us(name, false, ops)
	}
	untracedRate := un.opsPerSec()
	unOps := float64(len(un.lat))
	return []metric{
		{"datagen.gen_s", quantile(gen, 0.5), "s"},
		{"modelforge.train_s", quantile(train, 0.5), "s"},
		{"setup.other_s", quantile(other, 0.5), "s"},
		{"sqlparse.parse_us", t.us(spanParse, false, ops), "us/op"},
		{"engine.analyze_us", t.us(spanAnalyze, false, ops), "us/op"},
		{"engine.plan_self_us", t.us(spanPlan, true, ops), "us/op"},
		{"engine.plancache_hit_ratio", ratio(planHits, planHits+float64(plan1.Misses-plan0.Misses)), "ratio"},
		{"engine.plancache_evictions", float64(plan1.Evictions - plan0.Evictions), "count"},
		{"core.est_calls_per_op", float64(est.total()) / win, "count/op"},
		{"core.est_us", estUS, "us/op"},
		{"core.joinvec_hit_ratio", ratio(vecHits, vecHits+float64(vec1.Misses-vec0.Misses)), "ratio"},
		{"core.fallbacks", float64(e1.Fallbacks - e0.Fallbacks), "count"},
		{"core.model_failures", float64(e1.ModelFailures - e0.ModelFailures), "count"},
		{"bn.filter_calls", float64(est.filter) / win, "count/op"},
		{"bn.filter_us", t.us(spanFilter, false, ops), "us/op"},
		{"bn.conj_calls", float64(est.conj) / win, "count/op"},
		{"bn.conj_us", t.us(spanConj, false, ops), "us/op"},
		{"factorjoin.join_calls", float64(est.join) / win, "count/op"},
		{"factorjoin.join_us", t.us(spanJoin, false, ops), "us/op"},
		{"factorjoin.batch_items", float64(est.batchItems) / win, "count/op"},
		{"factorjoin.batch_us", t.us(spanBatch, false, ops), "us/op"},
		{"rbx.groupndv_calls", float64(est.ndv) / win, "count/op"},
		{"rbx.groupndv_us", t.us(spanNDV, false, ops), "us/op"},
		{"engine.exec_us", t.us(spanExec, false, execN), "us/op"},
		{"engine.exec_scan_us", t.us("engine."+obs.OpExecScan, false, execN), "us/op"},
		{"engine.exec_join_us", t.us("engine."+obs.OpExecJoin, false, execN), "us/op"},
		{"engine.exec_agg_us", t.us("engine."+obs.OpExecAgg, false, execN), "us/op"},
		{"engine.exec_unspanned_us", t.us(spanExec, true, execN), "us/op"},
		{"engine.rows_materialized_per_op", perEx(ex.rows), "count/op"},
		{"engine.hash_resizes_per_op", perEx(ex.resizes), "count/op"},
		{"engine.sip_pruned_per_op", perEx(ex.sip), "count/op"},
		{"storage.blocks_read_per_op", perEx(ex.blocksRead), "count/op"},
		{"storage.blocks_skipped_per_op", perEx(ex.blocksSkipped), "count/op"},
		{"storage.skip_ratio", ratio(float64(ex.blocksSkipped), float64(ex.blocksRead+ex.blocksSkipped)), "ratio"},
		{"storage.bytes_read_per_op", perEx(ex.bytesRead), "B/op"},
		{"par.workers", perEx(ex.workers), "count"},
		{"runtime.alloc_mb_per_op", un.rt.allocBytes / (1 << 20) / unOps, "MiB/op"},
		{"runtime.gc_cpu_share", ratio(un.rt.gcCPU, un.rt.totalCPU), "ratio"},
		{"runtime.gc_cycles_per_op", un.rt.gcCycles / unOps, "count/op"},
		{"trace.traced_ops_per_s", tracedRate, "ops/s"},
		{"trace.untraced_ops_per_s", untracedRate, "ops/s"},
		{"trace.overhead_ratio", 1 - tracedRate/untracedRate, "ratio"},
	}
}
