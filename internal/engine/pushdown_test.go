package engine

import (
	"reflect"
	"strconv"
	"testing"

	"bytecard/internal/catalog"
	"bytecard/internal/datagen"
	"bytecard/internal/obs"
	"bytecard/internal/sqlparse"
	"bytecard/internal/storage"
)

// tsEngine builds an engine over the timeseries dataset — the
// append-ordered workload the pushdown scan contract was built for.
func tsEngine(t *testing.T, scale float64) (*Engine, *datagen.Dataset) {
	t.Helper()
	ds, err := datagen.ByName("timeseries", datagen.Config{Scale: scale, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	e := New(ds.DB, ds.Schema, HeuristicEstimator{})
	return e, ds
}

// tsWindow returns the ts values at two fractions of the readings stream,
// bounding a populated window.
func tsWindow(ds *datagen.Dataset, loFrac, hiFrac float64) (int64, int64) {
	c := ds.DB.Table("readings").ColByName("ts")
	n := ds.DB.Table("readings").NumRows()
	return c.Value(int(loFrac * float64(n-1))).I, c.Value(int(hiFrac * float64(n-1))).I
}

// pushdownParityQueries covers every shape the contract routes differently:
// zone-skippable windows, equality on strings, disjunctions (one-pass
// only), grouped aggregation, projection, LIMIT, and joins.
func pushdownParityQueries(t *testing.T, ds *datagen.Dataset) []string {
	t.Helper()
	lo, hi := tsWindow(ds, 0.40, 0.42)
	lo2, hi2 := tsWindow(ds, 0.85, 0.86)
	host := ds.DB.Table("readings").ColByName("host").Value(7).S
	return []string{
		"SELECT COUNT(*) FROM readings WHERE readings.ts >= " + itoa(lo) + " AND readings.ts <= " + itoa(hi),
		"SELECT COUNT(*) FROM readings WHERE readings.ts >= " + itoa(lo2) + " AND readings.ts <= " + itoa(hi2) + " AND readings.metric = 2",
		"SELECT COUNT(*) FROM readings WHERE readings.host = '" + host + "'",
		"SELECT COUNT(*) FROM readings WHERE readings.metric = 1 OR readings.metric = 4",
		"SELECT readings.metric, COUNT(*) FROM readings WHERE readings.ts >= " + itoa(lo) + " AND readings.ts <= " + itoa(hi) + " GROUP BY readings.metric",
		"SELECT host FROM readings WHERE readings.ts >= " + itoa(lo2) + " AND readings.ts <= " + itoa(hi2) + " LIMIT 40",
		"SELECT COUNT(*) FROM readings r, devices d WHERE r.device_id = d.id AND d.fleet = 1 AND r.ts >= " + itoa(lo) + " AND r.ts <= " + itoa(hi),
		"SELECT COUNT(DISTINCT readings.host) FROM readings WHERE readings.ts >= " + itoa(lo) + " AND readings.ts <= " + itoa(hi),
	}
}

func itoa(v int64) string { return strconv.FormatInt(v, 10) }

// sameResult compares two results byte for byte.
func sameResult(a, b *Result) bool {
	return reflect.DeepEqual(a.Columns, b.Columns) && reflect.DeepEqual(a.Rows, b.Rows)
}

// TestStagedMatchesOnePass is the scan contract's correctness gate: every
// query shape must produce byte-identical results through the staged
// BlockScan (the default) and the one-pass reader (ForceReader
// "single-stage"), both must match the brute-force oracle, and staging
// must never read more blocks.
func TestStagedMatchesOnePass(t *testing.T) {
	e, ds := tsEngine(t, 0.05)
	for _, sql := range pushdownParityQueries(t, ds) {
		e.ForceReader = ""
		staged, err := e.Run(sql)
		if err != nil {
			t.Fatalf("%s (staged): %v", sql, err)
		}
		e.ForceReader = "single-stage"
		onePass, err := e.Run(sql)
		if err != nil {
			t.Fatalf("%s (one-pass): %v", sql, err)
		}
		if !sameResult(staged, onePass) {
			t.Errorf("%s: staged result diverges from one-pass", sql)
		}
		if s, o := staged.Metrics.IO.BlocksRead(), onePass.Metrics.IO.BlocksRead(); s > o {
			t.Errorf("%s: staged read %d blocks, one-pass %d", sql, s, o)
		}
		if len(analyze(t, e, sql).Select) > 0 {
			continue // the oracle evaluates aggregates only
		}
		naive, err := e.RunNaive(sql)
		if err != nil {
			t.Fatalf("%s (naive): %v", sql, err)
		}
		if !sameResult(staged, naive) {
			t.Errorf("%s: staged result diverges from the naive oracle", sql)
		}
	}
}

// TestPushdownWorkerParity asserts byte-identical results AND identical
// block-I/O accounting (read and skipped, total and per binding) at 1
// worker vs 4: pushdown decisions are block-local, so parallelism must not
// change what is charged.
func TestPushdownWorkerParity(t *testing.T) {
	e, ds := tsEngine(t, 0.05)
	for _, sql := range pushdownParityQueries(t, ds) {
		e.Parallelism = 1
		seq, err := e.Run(sql)
		if err != nil {
			t.Fatalf("%s (1 worker): %v", sql, err)
		}
		e.Parallelism = 4
		par, err := e.Run(sql)
		if err != nil {
			t.Fatalf("%s (4 workers): %v", sql, err)
		}
		if !sameResult(seq, par) {
			t.Errorf("%s: 4-worker result diverges from sequential", sql)
		}
		if sr, pr := seq.Metrics.IO.BlocksRead(), par.Metrics.IO.BlocksRead(); sr != pr {
			t.Errorf("%s: blocks read %d sequential vs %d parallel", sql, sr, pr)
		}
		if ss, ps := seq.Metrics.IO.BlocksSkipped(), par.Metrics.IO.BlocksSkipped(); ss != ps {
			t.Errorf("%s: blocks skipped %d sequential vs %d parallel", sql, ss, ps)
		}
		if !reflect.DeepEqual(seq.Metrics.ScanBlocks, par.Metrics.ScanBlocks) {
			t.Errorf("%s: per-scan block stats diverge: %v vs %v",
				sql, seq.Metrics.ScanBlocks, par.Metrics.ScanBlocks)
		}
	}
}

// TestPushdownSkipsWindowBlocks pins the headline win: a narrow time
// window over the append-ordered readings stream must read a small
// fraction of the blocks the one-pass reader reads, skip the rest via zone
// maps, and record the skips in a scan_pushdown span.
func TestPushdownSkipsWindowBlocks(t *testing.T) {
	e, ds := tsEngine(t, 0.1)
	lo, hi := tsWindow(ds, 0.50, 0.51)
	sql := "SELECT COUNT(*) FROM readings WHERE readings.ts >= " + itoa(lo) + " AND readings.ts <= " + itoa(hi)

	tr := obs.NewTrace()
	on, err := e.RunTraced(sql, tr)
	if err != nil {
		t.Fatal(err)
	}
	e.ForceReader = "single-stage"
	off, err := e.Run(sql)
	if err != nil {
		t.Fatal(err)
	}
	onRead, offRead := on.Metrics.IO.BlocksRead(), off.Metrics.IO.BlocksRead()
	if onRead*3 > offRead {
		t.Errorf("narrow window: staged read %d blocks, one-pass %d (< 3x reduction)", onRead, offRead)
	}
	if on.Metrics.IO.BlocksSkipped() == 0 {
		t.Error("narrow window skipped no blocks")
	}
	var span *obs.Span
	for _, s := range tr.Spans() {
		if s.Op == obs.OpScanPushdown {
			span = &s
			break
		}
	}
	if span == nil {
		t.Fatal("no scan_pushdown span recorded")
	}
	if int64(span.Value) != on.Metrics.IO.BlocksSkipped() {
		t.Errorf("span skipped %v != metrics skipped %d", span.Value, on.Metrics.IO.BlocksSkipped())
	}
}

// TestProjectionAndLimit validates the projection/limit pushdown shape
// against a directly computed expectation, and that the limit actually
// stops the scan early (fewer blocks than the unlimited scan).
func TestProjectionAndLimit(t *testing.T) {
	db := buildWide(storage.BlockSize * 8)
	e := New(db, catalog.NewSchema(), HeuristicEstimator{})

	res, err := e.Run("SELECT s, v FROM wide WHERE t >= 20 LIMIT 10")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 10 {
		t.Fatalf("LIMIT 10 returned %d rows", len(res.Rows))
	}
	if !reflect.DeepEqual(res.Columns, []string{"s", "v"}) {
		t.Fatalf("columns = %v", res.Columns)
	}
	// Expected: first 10 matching rows in row order.
	tab := db.Table("wide")
	sCol, vCol, tCol := tab.ColByName("s"), tab.ColByName("v"), tab.ColByName("t")
	want := 0
	for i := 0; i < tab.NumRows() && want < 10; i++ {
		if tCol.Value(i).I >= 20 {
			if res.Rows[want][0] != sCol.Value(i) || res.Rows[want][1] != vCol.Value(i) {
				t.Fatalf("row %d = %v, want [%v %v]", want, res.Rows[want], sCol.Value(i), vCol.Value(i))
			}
			want++
		}
	}
	if want != 10 {
		t.Fatalf("only matched %d of 10 expected rows", want)
	}

	unlimited, err := e.Run("SELECT s, v FROM wide WHERE t >= 20")
	if err != nil {
		t.Fatal(err)
	}
	if lim, unlim := res.Metrics.IO.BlocksRead(), unlimited.Metrics.IO.BlocksRead(); lim >= unlim {
		t.Errorf("LIMIT read %d blocks, unlimited read %d — limit did not stop early", lim, unlim)
	}

	// Grouped aggregation with LIMIT truncates after the sorted output.
	full, err := e.Run("SELECT s, COUNT(*) FROM wide GROUP BY s")
	if err != nil {
		t.Fatal(err)
	}
	lim2, err := e.Run("SELECT s, COUNT(*) FROM wide GROUP BY s LIMIT 2")
	if err != nil {
		t.Fatal(err)
	}
	if len(lim2.Rows) != 2 || !reflect.DeepEqual(full.Rows[:2], lim2.Rows) {
		t.Errorf("grouped LIMIT 2 = %v, want prefix of %v", lim2.Rows, full.Rows)
	}
}

// TestPlanCacheHonoursForceReader: a ForceReader ablation plans
// cache-free, so a warm template never replays the staged reader into a
// forced one-pass run, and the forced run never publishes its plan.
func TestPlanCacheHonoursForceReader(t *testing.T) {
	db := buildWide(storage.BlockSize * 10)
	e := New(db, catalog.NewSchema(), HeuristicEstimator{})
	e.PlanCache = NewPlanCache(0)
	sql := "SELECT COUNT(*) FROM wide WHERE t >= 90 AND v < 500"
	run := func(wantHit bool, wantStrategy string, wantBlocks int64) {
		t.Helper()
		res, err := e.Run(sql)
		if err != nil {
			t.Fatal(err)
		}
		m := res.Metrics
		if m.PlanCacheHit != wantHit || m.ReaderStrategy["wide"] != wantStrategy || m.IO.BlocksRead() != wantBlocks {
			t.Errorf("ForceReader=%q: hit=%v strategy=%s blocks=%d, want hit=%v strategy=%s blocks=%d",
				e.ForceReader, m.PlanCacheHit, m.ReaderStrategy["wide"], m.IO.BlocksRead(),
				wantHit, wantStrategy, wantBlocks)
		}
	}
	run(false, "multi-stage", 2)
	run(true, "multi-stage", 2)
	e.ForceReader = "single-stage"
	run(false, "single-stage", 20)
	run(false, "single-stage", 20)
	e.ForceReader = ""
	run(true, "multi-stage", 2)
}

// TestReaderStrategyNamesBody: Metrics.ReaderStrategy names the body that
// ran. A staged scan skips zone-map-pruned blocks; the one-pass reader
// skips none and reads every block of its touched columns; a SIP-first
// join table carries the "sip+" prefix over its filter body.
func TestReaderStrategyNamesBody(t *testing.T) {
	e := New(buildWideSmall(), catalog.NewSchema(), HeuristicEstimator{})
	run := func(sql string) Metrics {
		t.Helper()
		res, err := e.Run(sql)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		return res.Metrics
	}
	m := run("SELECT COUNT(*) FROM wide WHERE t >= 90 AND v < 500")
	if got := m.ReaderStrategy["wide"]; got != "multi-stage" || m.IO.BlocksSkipped() == 0 {
		t.Errorf("selective conjunction: strategy %s, %d blocks skipped; want multi-stage skipping blocks",
			got, m.IO.BlocksSkipped())
	}
	m = run("SELECT COUNT(*) FROM wide WHERE t >= 90 OR v < 5")
	if got := m.ReaderStrategy["wide"]; got != "single-stage" || m.IO.BlocksSkipped() != 0 || m.IO.BlocksRead() != 8 {
		t.Errorf("OR filter: strategy %s, %d read, %d skipped; want single-stage reading all 8 blocks",
			got, m.IO.BlocksRead(), m.IO.BlocksSkipped())
	}
	for _, c := range []struct{ filter, want string }{
		{"wide.v < 400 AND wide.t < 50", "sip+multi-stage"},
		{"(wide.v < 400 OR wide.t > 50)", "sip+single-stage"},
	} {
		m = run("SELECT COUNT(*) FROM small, wide WHERE wide.t = small.t_ref AND small.w < 150 AND " + c.filter)
		if got := m.ReaderStrategy["wide"]; got != c.want || m.SIPPruned == 0 {
			t.Errorf("SIP-first %s: strategy %s, %d pruned; want %s", c.filter, got, m.SIPPruned, c.want)
		}
	}
}

func analyze(t *testing.T, e *Engine, sql string) *Query {
	t.Helper()
	stmt, err := sqlparse.Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	q, err := e.Analyze(stmt)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

// TestExplainPredictedVsActualBlocks: Explain predicts a staged scan's
// block reads from zone maps; AnnotateExecution fills the executed count,
// and prediction must upper-bound reality.
func TestExplainPredictedVsActualBlocks(t *testing.T) {
	e, ds := tsEngine(t, 0.05)
	lo, hi := tsWindow(ds, 0.60, 0.62)
	sql := "SELECT COUNT(*) FROM readings WHERE readings.ts >= " + itoa(lo) + " AND readings.ts <= " + itoa(hi) + " AND readings.metric = 3"

	ex, err := e.Explain(sql)
	if err != nil {
		t.Fatal(err)
	}
	var scan *ExplainNode
	for i := range ex.Nodes {
		if ex.Nodes[i].Kind == "scan" {
			scan = &ex.Nodes[i]
		}
	}
	if scan == nil || scan.Strategy != "multi-stage" {
		t.Fatalf("no staged scan node in %+v", ex.Nodes)
	}
	if scan.PredictedBlocks == 0 {
		t.Fatal("no block prediction for a constrained staged scan")
	}
	res, err := e.Run(sql)
	if err != nil {
		t.Fatal(err)
	}
	ex.AnnotateExecution(&res.Metrics)
	if scan.ActualBlocks == 0 {
		t.Fatal("AnnotateExecution left ActualBlocks empty")
	}
	if scan.ActualBlocks > scan.PredictedBlocks {
		t.Errorf("actual %d blocks exceeds zone-map prediction %d", scan.ActualBlocks, scan.PredictedBlocks)
	}
	if sb := res.Metrics.ScanBlocks["readings"]; scan.ActualBlocks != sb.Read {
		t.Errorf("annotated %d != metrics %d", scan.ActualBlocks, sb.Read)
	}
}
