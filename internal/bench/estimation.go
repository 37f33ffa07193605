package bench

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"bytecard/internal/bn"
	"bytecard/internal/cardinal"
	"bytecard/internal/core"
	"bytecard/internal/datagen"
	"bytecard/internal/engine"
	"bytecard/internal/loader"
	"bytecard/internal/modelforge"
	"bytecard/internal/modelstore"
	"bytecard/internal/rbx"
	"bytecard/internal/sqlparse"
)

// The estimation fast-path benchmark suite measures the three optimizations
// of the estimation hot path against their baseline implementations, which
// the codebase keeps alive precisely so the comparison stays honest:
//
//   - bn_prob: one BN inference through the pooled scratch (Context.Prob)
//     vs the fresh-allocation reference (Context.ProbNoScratch);
//   - join_dp_n{3,6,10}: the join-order DP planning an n-table query with
//     batched estimation fanned across workers vs the sequential per-subset
//     path (the batch interface hidden);
//   - plan_cache_hit: the same n=6 planning served as a warm template-cache
//     hit vs the full fresh DP;
//   - train_full: one full ModelForge pipeline with the training worker
//     pool vs a single worker (min of three interleaved runs, so allocator
//     and page-cache noise does not decide the ratio).
//
// EstimationSuite renders the result as an EstimationReport, persisted as
// BENCH_estimation.json at the repository root so regressions diff in code
// review.

// EstimationMeasure is one measured configuration.
type EstimationMeasure struct {
	Iters       int     `json:"iters"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
}

// EstimationPair is one before/after benchmark: the baseline path and the
// fast path over identical work.
type EstimationPair struct {
	Name   string            `json:"name"`
	Before EstimationMeasure `json:"before"`
	After  EstimationMeasure `json:"after"`
	// Speedup is Before.NsPerOp / After.NsPerOp (>1 means faster).
	Speedup float64 `json:"speedup"`
	// AllocRatio is Before.AllocsPerOp / max(After.AllocsPerOp, 1).
	AllocRatio float64 `json:"alloc_ratio"`
	// BlocksBefore/BlocksAfter count the storage blocks one pass of the
	// probe set reads with the optimization off/on — deterministic, unlike
	// wall time, so block-I/O benches gate on BlockRatio (Before/After)
	// rather than Speedup. Zero for time-only benches.
	BlocksBefore int64   `json:"blocks_before,omitempty"`
	BlocksAfter  int64   `json:"blocks_after,omitempty"`
	BlockRatio   float64 `json:"block_ratio,omitempty"`
}

// EstimationReport is the serialized suite result.
type EstimationReport struct {
	GeneratedAt string           `json:"generated_at"`
	Smoke       bool             `json:"smoke"`
	Scale       float64          `json:"scale"`
	Parallelism int              `json:"parallelism"`
	GOMAXPROCS  int              `json:"gomaxprocs"`
	Benches     []EstimationPair `json:"benches"`
}

// EstimationConfig controls the suite.
type EstimationConfig struct {
	// Smoke shrinks iteration counts and data so the suite finishes in
	// seconds — CI's compile-and-run gate, not a stable measurement.
	Smoke bool
	// Parallelism is the batched planner's worker count (default 4).
	Parallelism int
	// Seed drives data generation and training (default 1).
	Seed int64
	// Log receives progress lines when non-nil.
	Log func(format string, args ...any)
}

func (c *EstimationConfig) fill() {
	if c.Parallelism <= 0 {
		c.Parallelism = 4
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
}

func (c *EstimationConfig) logf(format string, args ...any) {
	if c.Log != nil {
		c.Log(format, args...)
	}
}

// measure times iters calls of fn on the current goroutine, reading
// allocation deltas from runtime.MemStats. The counters are process-global,
// so fn must be the only allocation source while measuring (the suite runs
// single-threaded between setups).
func measure(iters int, fn func()) EstimationMeasure {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	for i := 0; i < iters; i++ {
		fn()
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	n := float64(iters)
	return EstimationMeasure{
		Iters:       iters,
		NsPerOp:     float64(elapsed.Nanoseconds()) / n,
		AllocsPerOp: float64(after.Mallocs-before.Mallocs) / n,
		BytesPerOp:  float64(after.TotalAlloc-before.TotalAlloc) / n,
	}
}

func pair(name string, before, after EstimationMeasure) EstimationPair {
	p := EstimationPair{Name: name, Before: before, After: after}
	if after.NsPerOp > 0 {
		p.Speedup = before.NsPerOp / after.NsPerOp
	}
	denom := after.AllocsPerOp
	if denom < 1 {
		denom = 1
	}
	p.AllocRatio = before.AllocsPerOp / denom
	return p
}

// wideBNModel trains a synthetic 8-column categorical BN — wide enough that
// per-node allocation dominates the fresh-allocation baseline.
func wideBNModel(seed int64) (*bn.Model, error) {
	const nCols, nRows = 8, 4000
	rng := rand.New(rand.NewSource(seed))
	cols := make([][]float64, nCols)
	names := make([]string, nCols)
	for c := range cols {
		cols[c] = make([]float64, nRows)
		names[c] = fmt.Sprintf("c%d", c)
	}
	for r := 0; r < nRows; r++ {
		base := float64(rng.Intn(5))
		for c := range cols {
			v := base
			if rng.Float64() > 0.7 {
				v = float64(rng.Intn(5))
			}
			cols[c][r] = v
		}
	}
	return bn.Train(bn.TrainConfig{Table: "wide", ColNames: names, Sample: cols, Laplace: 0.1})
}

// benchBNProb measures one BN inference, pooled vs fresh-allocation.
func benchBNProb(cfg *EstimationConfig) (EstimationPair, error) {
	m, err := wideBNModel(3)
	if err != nil {
		return EstimationPair{}, err
	}
	ctx, err := m.NewContext()
	if err != nil {
		return EstimationPair{}, err
	}
	// Soft evidence on the first column, shaped like a range predicate.
	weights := make([][]float64, len(m.Cols))
	ev := make([]float64, m.Cols[0].Bins())
	for b := range ev {
		if b%2 == 0 {
			ev[b] = 1
		} else {
			ev[b] = 0.25
		}
	}
	weights[0] = ev
	iters := 50000
	if cfg.Smoke {
		iters = 2000
	}
	ctx.Prob(weights) // warm the pool
	after := measure(iters, func() { ctx.Prob(weights) })
	before := measure(iters, func() { ctx.ProbNoScratch(weights) })
	return pair("bn_prob", before, after), nil
}

// seqEstimator hides EstimateJoinBatch, forcing the sequential DP path.
type seqEstimator struct{ engine.CardEstimator }

// estimationJoinQueries are the DP macro-bench queries at n=3, 6, and 10
// tables (n=10 via alias self-joins around the title hub).
var estimationJoinQueries = []struct {
	name string
	sql  string
}{
	{"join_dp_n3", "SELECT COUNT(*) FROM title t, cast_info ci, movie_keyword mk WHERE ci.movie_id = t.id AND mk.movie_id = t.id AND t.production_year >= 1990"},
	{"join_dp_n6", "SELECT COUNT(*) FROM title t, cast_info ci, movie_keyword mk, movie_info mi, movie_companies mc, movie_info_idx mii " +
		"WHERE ci.movie_id = t.id AND mk.movie_id = t.id AND mi.movie_id = t.id AND mc.movie_id = t.id AND mii.movie_id = t.id"},
	{"join_dp_n10", "SELECT COUNT(*) FROM title t, cast_info c1, cast_info c2, movie_keyword k1, movie_keyword k2, movie_info i1, movie_info i2, movie_companies m1, movie_companies m2, movie_info_idx x1 " +
		"WHERE c1.movie_id = t.id AND c2.movie_id = t.id AND k1.movie_id = t.id AND k2.movie_id = t.id AND i1.movie_id = t.id AND i2.movie_id = t.id AND m1.movie_id = t.id AND m2.movie_id = t.id AND x1.movie_id = t.id"},
}

// estimationSystem wires the minimal trained planning stack: imdb data,
// ModelForge-trained BN/FactorJoin artifacts, and a core.Estimator over
// them (with a small RBX so training stays in bench budget).
func estimationSystem(cfg *EstimationConfig, scale float64) (*datagen.Dataset, *core.Estimator, error) {
	ds, err := datagen.ByName("imdb", datagen.Config{Scale: scale, Seed: cfg.Seed})
	if err != nil {
		return nil, nil, err
	}
	dir, err := os.MkdirTemp("", "bytecard-estbench-*")
	if err != nil {
		return nil, nil, err
	}
	store, err := modelstore.Open(dir)
	if err != nil {
		return nil, nil, err
	}
	forge := modelforge.New("imdb", ds.DB, ds.Schema, store, modelforge.Config{
		SampleRows: 4000, BucketCount: 64, Seed: cfg.Seed + 3,
		RBX: rbx.TrainConfig{Columns: 60, Epochs: 3, MaxPop: 8000, Seed: cfg.Seed + 9},
	})
	if _, err := forge.TrainAll(); err != nil {
		return nil, nil, err
	}
	infer := core.NewInferenceEngine(core.Options{})
	if _, err := loader.New(store, infer).RefreshOnce(); err != nil {
		return nil, nil, err
	}
	sketch := cardinal.NewSketchEstimator(ds.DB, cardinal.DefaultHistogramBuckets)
	est := core.NewEstimator(infer, sketch)
	loader.LoadSamples(ds.DB, est, 4000, cfg.Seed+4)
	return ds, est, nil
}

// benchJoinDP measures join-order planning latency, batched vs sequential,
// through the real ByteCard estimator.
func benchJoinDP(cfg *EstimationConfig) ([]EstimationPair, error) {
	scale := 0.05
	iters := map[string]int{"join_dp_n3": 300, "join_dp_n6": 60, "join_dp_n10": 15}
	if cfg.Smoke {
		scale = 0.02
		iters = map[string]int{"join_dp_n3": 10, "join_dp_n6": 3, "join_dp_n10": 1}
	}
	ds, est, err := estimationSystem(cfg, scale)
	if err != nil {
		return nil, err
	}
	batched := engine.New(ds.DB, ds.Schema, est)
	batched.Parallelism = cfg.Parallelism
	sequential := engine.New(ds.DB, ds.Schema, seqEstimator{est})
	sequential.Parallelism = cfg.Parallelism

	var out []EstimationPair
	for _, q := range estimationJoinQueries {
		stmt, err := sqlparse.Parse(q.sql)
		if err != nil {
			return nil, err
		}
		qb, err := batched.Analyze(stmt)
		if err != nil {
			return nil, err
		}
		qs, err := sequential.Analyze(stmt)
		if err != nil {
			return nil, err
		}
		// Warm the shared join-vector cache so both paths measure the DP,
		// not first-touch BN inference.
		if _, err := batched.Plan(qb); err != nil {
			return nil, err
		}
		if _, err := sequential.Plan(qs); err != nil {
			return nil, err
		}
		n := iters[q.name]
		after := measure(n, func() { _, _ = batched.Plan(qb) })
		before := measure(n, func() { _, _ = sequential.Plan(qs) })
		out = append(out, pair(q.name, before, after))
		cfg.logf("[estimation] %s: seq %.0fns/op, batched %.0fns/op", q.name, before.NsPerOp, after.NsPerOp)
	}

	cachePair, err := benchPlanCacheHit(cfg, ds, est)
	if err != nil {
		return nil, err
	}
	out = append(out, cachePair)
	return out, nil
}

// benchPlanCacheHit measures the n=6 query planned fresh (no plan cache,
// batched estimation — the best uncached path) vs served as a warm
// template-cache hit (normalize, decision lookup, replay).
func benchPlanCacheHit(cfg *EstimationConfig, ds *datagen.Dataset, est *core.Estimator) (EstimationPair, error) {
	sql := estimationJoinQueries[1].sql // join_dp_n6
	fresh := engine.New(ds.DB, ds.Schema, est)
	fresh.Parallelism = cfg.Parallelism
	cached := engine.New(ds.DB, ds.Schema, est)
	cached.Parallelism = cfg.Parallelism
	cached.PlanCache = engine.NewPlanCache(0)

	stmt, err := sqlparse.Parse(sql)
	if err != nil {
		return EstimationPair{}, err
	}
	qf, err := fresh.Analyze(stmt)
	if err != nil {
		return EstimationPair{}, err
	}
	qc, err := cached.Analyze(stmt)
	if err != nil {
		return EstimationPair{}, err
	}
	// Warm the join-vector cache on the fresh path and publish the template
	// on the cached one, so both measurements are steady-state.
	if _, err := fresh.Plan(qf); err != nil {
		return EstimationPair{}, err
	}
	if _, err := cached.Plan(qc); err != nil {
		return EstimationPair{}, err
	}
	freshIters, hitIters := 60, 20000
	if cfg.Smoke {
		freshIters, hitIters = 3, 500
	}
	after := measure(hitIters, func() { _, _ = cached.Plan(qc) })
	before := measure(freshIters, func() { _, _ = fresh.Plan(qf) })
	cfg.logf("[estimation] plan_cache_hit: fresh %.0fns/op, hit %.0fns/op", before.NsPerOp, after.NsPerOp)
	return pair("plan_cache_hit", before, after), nil
}

// benchTrain measures one full ModelForge pipeline with a single training
// worker vs the full pool.
func benchTrain(cfg *EstimationConfig) (EstimationPair, error) {
	scale := 2.0
	if cfg.Smoke {
		scale = 1.0
	}
	run := func(workers int) (EstimationMeasure, error) {
		ds := datagen.Toy(datagen.Config{Scale: scale, Seed: cfg.Seed})
		dir, err := os.MkdirTemp("", "bytecard-trainbench-*")
		if err != nil {
			return EstimationMeasure{}, err
		}
		store, err := modelstore.Open(dir)
		if err != nil {
			return EstimationMeasure{}, err
		}
		forge := modelforge.New("toy", ds.DB, ds.Schema, store, modelforge.Config{
			SampleRows: 4000, BucketCount: 64, Seed: cfg.Seed + 3, TrainWorkers: workers,
			RBX: rbx.TrainConfig{Columns: 60, Epochs: 3, MaxPop: 8000, Seed: cfg.Seed + 9},
		})
		var trainErr error
		m := measure(1, func() { _, trainErr = forge.TrainAll() })
		return m, trainErr
	}
	// With the effective-parallelism gate, a pool on a single-CPU runtime
	// resolves to exactly the single-worker configuration — same code path,
	// same artifacts. Measuring the two "sides" separately would only
	// measure run-to-run noise between identical runs (and on one long op
	// per side, 2% noise flips the ratio). Measure once, report the tie.
	if runtime.GOMAXPROCS(0) <= 1 {
		m, err := run(1)
		if err != nil {
			return EstimationPair{}, err
		}
		return pair("train_full", m, m), nil
	}
	// Min of three interleaved runs per side: training is one long op, so a
	// single GC pause or cold page cache on either side would decide the
	// ratio. Interleaving keeps ambient drift symmetric; min discards it.
	runs := 3
	if cfg.Smoke {
		runs = 1
	}
	var before, after EstimationMeasure
	for i := 0; i < runs; i++ {
		b, err := run(1)
		if err != nil {
			return EstimationPair{}, err
		}
		a, err := run(runtime.GOMAXPROCS(0))
		if err != nil {
			return EstimationPair{}, err
		}
		if i == 0 || b.NsPerOp < before.NsPerOp {
			before = b
		}
		if i == 0 || a.NsPerOp < after.NsPerOp {
			after = a
		}
	}
	return pair("train_full", before, after), nil
}

// benchScanPushdown measures the pushdown scan contract over the
// append-ordered timeseries dataset: identical windowed COUNT probes and a
// projection+LIMIT probe run through the staged BlockScan (after) and the
// forced one-pass reader (before). Wall time is
// reported, but the gated signal is total blocks read — deterministic for
// a fixed seed and scale, so the ratio cannot be decided by timer noise.
func benchScanPushdown(cfg *EstimationConfig) (EstimationPair, error) {
	scale, iters := 0.2, 30
	if cfg.Smoke {
		scale, iters = 0.05, 2
	}
	ds, err := datagen.ByName("timeseries", datagen.Config{Scale: scale, Seed: cfg.Seed})
	if err != nil {
		return EstimationPair{}, err
	}
	readings := ds.DB.Table("readings")
	tsCol := readings.ColByName("ts")
	n := readings.NumRows()
	// Window bounds come from live rows at fixed fractions of the
	// append-ordered stream, so every window is populated and ~1% wide.
	tsAt := func(frac float64) int64 { return tsCol.Value(int(frac * float64(n-1))).I }
	queries := []string{
		fmt.Sprintf("SELECT COUNT(*) FROM readings WHERE readings.ts >= %d AND readings.ts <= %d",
			tsAt(0.40), tsAt(0.41)),
		fmt.Sprintf("SELECT COUNT(*) FROM readings WHERE readings.ts >= %d AND readings.ts <= %d AND readings.metric = 2",
			tsAt(0.70), tsAt(0.71)),
		fmt.Sprintf("SELECT host FROM readings WHERE readings.ts >= %d AND readings.ts <= %d LIMIT 50",
			tsAt(0.90), tsAt(0.91)),
	}
	on := engine.New(ds.DB, ds.Schema, engine.HeuristicEstimator{})
	off := engine.New(ds.DB, ds.Schema, engine.HeuristicEstimator{})
	off.ForceReader = "single-stage"
	blocksFor := func(e *engine.Engine) (int64, error) {
		var total int64
		for _, sql := range queries {
			res, err := e.Run(sql)
			if err != nil {
				return 0, fmt.Errorf("scan_pushdown probe %q: %w", sql, err)
			}
			total += res.Metrics.IO.BlocksRead()
		}
		return total, nil
	}
	blocksAfter, err := blocksFor(on)
	if err != nil {
		return EstimationPair{}, err
	}
	blocksBefore, err := blocksFor(off)
	if err != nil {
		return EstimationPair{}, err
	}
	after := measure(iters, func() { _, _ = blocksFor(on) })
	before := measure(iters, func() { _, _ = blocksFor(off) })
	p := pair("scan_pushdown", before, after)
	p.BlocksBefore, p.BlocksAfter = blocksBefore, blocksAfter
	if blocksAfter > 0 {
		p.BlockRatio = float64(blocksBefore) / float64(blocksAfter)
	}
	cfg.logf("[estimation] scan_pushdown: %d blocks one-pass, %d blocks staged (%.1fx)",
		blocksBefore, blocksAfter, p.BlockRatio)
	return p, nil
}

// SpeedupFloors are the per-bench speedup ratios a committed baseline must
// clear: the fast path must never lose to the code it replaced, the n=3 DP
// keeps its headline margin, and a template-cache hit must be far cheaper
// than the DP it elides. CheckJSON enforces these in CI over the committed
// BENCH_estimation.json.
var SpeedupFloors = map[string]float64{
	"join_dp_n3":     1.2,
	"join_dp_n6":     1.0,
	"join_dp_n10":    1.0,
	"train_full":     1.0,
	"plan_cache_hit": 5.0,
}

// BlockFloors are the per-bench block-I/O reduction ratios
// (BlocksBefore/BlocksAfter) a committed baseline must clear. Block counts
// are deterministic for a fixed seed, so these floors gate on real I/O
// reduction rather than timer noise — which is why scan_pushdown carries a
// block floor and no speedup floor.
var BlockFloors = map[string]float64{
	"scan_pushdown": 3.0,
}

// CheckJSON loads a persisted estimation report and validates every
// floored bench is present and clears its speedup floor. Smoke reports are
// rejected: smoke iteration counts are a compile gate, not a measurement.
func CheckJSON(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var rep EstimationReport
	if err := json.Unmarshal(data, &rep); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	if rep.Smoke {
		return fmt.Errorf("%s is a smoke report; thresholds only apply to full runs", path)
	}
	got := map[string]float64{}
	blocks := map[string]float64{}
	for _, b := range rep.Benches {
		got[b.Name] = b.Speedup
		blocks[b.Name] = b.BlockRatio
	}
	var failures []string
	for name, floor := range SpeedupFloors {
		speedup, ok := got[name]
		switch {
		case !ok:
			failures = append(failures, fmt.Sprintf("%s: missing from report", name))
		case speedup < floor:
			failures = append(failures, fmt.Sprintf("%s: speedup %.2f below floor %.2f", name, speedup, floor))
		}
	}
	for name, floor := range BlockFloors {
		ratio, ok := blocks[name]
		switch {
		case !ok || ratio == 0:
			failures = append(failures, fmt.Sprintf("%s: missing block counts from report", name))
		case ratio < floor:
			failures = append(failures, fmt.Sprintf("%s: block ratio %.2f below floor %.2f", name, ratio, floor))
		}
	}
	if len(failures) > 0 {
		sort.Strings(failures)
		return fmt.Errorf("estimation baseline regressions:\n  %s", strings.Join(failures, "\n  "))
	}
	return nil
}

// EstimationSuite runs the full fast-path suite.
func EstimationSuite(cfg EstimationConfig) (*EstimationReport, error) {
	cfg.fill()
	rep := &EstimationReport{
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		Smoke:       cfg.Smoke,
		Scale:       0.05,
		Parallelism: cfg.Parallelism,
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
	}
	if cfg.Smoke {
		rep.Scale = 0.02
	}
	cfg.logf("[estimation] bn_prob")
	bnPair, err := benchBNProb(&cfg)
	if err != nil {
		return nil, err
	}
	rep.Benches = append(rep.Benches, bnPair)
	cfg.logf("[estimation] join DP (training imdb models)")
	dpPairs, err := benchJoinDP(&cfg)
	if err != nil {
		return nil, err
	}
	rep.Benches = append(rep.Benches, dpPairs...)
	cfg.logf("[estimation] train_full")
	trainPair, err := benchTrain(&cfg)
	if err != nil {
		return nil, err
	}
	rep.Benches = append(rep.Benches, trainPair)
	cfg.logf("[estimation] scan_pushdown")
	scanPair, err := benchScanPushdown(&cfg)
	if err != nil {
		return nil, err
	}
	rep.Benches = append(rep.Benches, scanPair)
	return rep, nil
}

// WriteJSON persists the report (indented, trailing newline) for diff-able
// baselines.
func (r *EstimationReport) WriteJSON(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
