// Command e2ebench is the repository's end-to-end and per-layer benchmark.
//
// It opens a fresh bytecard.System, generates one workload's SQL from a
// seeded generator of its own, drives it from one closed-loop client (the
// next op starts only after the previous one returned), checks every op's
// output, and prints every metric by name with its unit. The last line of
// standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones, measured through the
// public entry points with no tracing. With -trace 1 they are the per-layer
// ones, measured by a traced run that calls each layer's public functions
// one by one and records a span around each call. See README.md.
//
// Usage (from the repository root):
//
//	bash e2ebench/run.sh --workload stats-join --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"bytecard"
	"bytecard/internal/datagen"
	"bytecard/internal/engine"
	"bytecard/internal/obs"
	"bytecard/internal/sqlparse"
)

// spec describes one workload.
type spec struct {
	name    string
	dataset string
	scale   float64
	// plan marks plan-only ops: Parse, Analyze and Plan, no execution.
	plan bool
	// pool > 0 makes the op stream a fixed pool of that many statements,
	// drawn once from the generator seeded with suite, whatever the run
	// seed. The run seed orders the pool anew for every cycle; the first
	// cycle is an untimed warm-up and measured loops run whole cycles.
	// pool == 0 makes it a never-repeating stream drawn with the run
	// seed, of which warm statements run untimed.
	pool, warm int
	suite      int64
	// window is the number of leading measured stream ops over which the
	// deterministic counters are taken (pools use one full cycle).
	window int
	// sample is the number of plan-only ops, drawn from the window, that
	// are executed after the timed loop to check their plans.
	sample int
	// qset > 0 gives a plan-only workload its q-errors: that many
	// statements, drawn once from the generator seeded with suite, are
	// executed after the run for their truths.
	qset int
	// naive is the number of leading measured ops also checked against
	// the brute-force oracle.
	naive int
	// chunk is the number of stream ops per throughput sample (pools use
	// one cycle): ops_per_s is the median over a run's whole chunks.
	chunk int
	salt  int64
	gen   func(ds *datagen.Dataset, seed int64) (func() string, error)
}

func joinSource(sh shape) func(*datagen.Dataset, int64) (func() string, error) {
	return func(ds *datagen.Dataset, seed int64) (func() string, error) {
		return newJoinGen(ds, sh, seed).next, nil
	}
}

func tsSource(ds *datagen.Dataset, seed int64) (func() string, error) {
	g, err := newTSGen(ds, seed)
	if err != nil {
		return nil, err
	}
	return g.next, nil
}

var specs = []spec{
	{name: "stats-join", dataset: "stats", scale: 0.05, pool: 200, suite: 1, salt: 11, gen: joinSource(statsShape)},
	{name: "aeolus-agg", dataset: "aeolus", scale: 0.05, pool: 200, suite: 1, salt: 23, gen: joinSource(aeolusShape)},
	{name: "plan-adhoc", dataset: "stats", scale: 0.05, plan: true, warm: 200, window: 400, sample: 30, qset: 100, suite: 1, chunk: 500, salt: 37, gen: joinSource(statsShape)},
	{name: "timeseries-scan", dataset: "timeseries", scale: 1.0, warm: 200, window: 500, naive: 50, chunk: 2000, salt: 41, gen: tsSource},
}

// streamDigestLen is how many leading statements of the op stream the
// printed SQL-stream digest covers.
const streamDigestLen = 1000

// setupReps is how many times a run opens the system; setup_s is the
// median of the opens.
const setupReps = 3

// minTimedOps is the fewest ops the end-to-end timings are taken over,
// and the fewest measured ops of an end-to-end run over a pool: with 1000
// samples, ten lie beyond the p99.
const minTimedOps = 1000

func specByName(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

func main() {
	var (
		workload    = flag.String("workload", "", "workload: stats-join, aeolus-agg, plan-adhoc or timeseries-scan")
		seed        = flag.Int64("seed", 1, "seed of the workload's SQL generator")
		seconds     = flag.Float64("seconds", 10, "op time to measure, in seconds")
		trace       = flag.Int("trace", 0, "0: end-to-end metrics from an untraced run; 1: per-layer metrics from a traced run")
		out         = flag.String("out", filepath.Join(".bench_build", "e2ebench"), "directory for reports, spans and model stores")
		printDigest = flag.Bool("sql-digest", false, "print the workload's SQL-stream SHA-256 and exit")
	)
	flag.Parse()
	sp, ok := specByName(*workload)
	if !ok || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "e2ebench: need -workload stats-join|aeolus-agg|plan-adhoc|timeseries-scan, -trace 0|1, -seconds > 0")
		os.Exit(2)
	}
	if *printDigest {
		d, err := streamDigest(sp, *seed)
		if err != nil {
			fmt.Fprintln(os.Stderr, "e2ebench:", err)
			os.Exit(1)
		}
		fmt.Println(d)
		return
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	r := &runner{sp: sp, seed: *seed, budget: time.Duration(*seconds * float64(time.Second)), traced: *trace == 1, out: *out}
	res, err := r.run()
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	if err := res.emit(r.reportPath()); err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
}

// genSeed derives the generator seed of a workload from the run seed.
func genSeed(sp spec, seed int64) int64 { return seed*1_000_003 + sp.salt }

// loadDataset builds the workload's dataset exactly as bytecard.Open does.
func loadDataset(sp spec) (*datagen.Dataset, error) {
	return datagen.ByName(sp.dataset, datagen.Config{Scale: sp.scale, Seed: 1})
}

// streamDigest generates the workload's op stream without opening a
// system and returns the SHA-256 of its leading statements.
func streamDigest(sp spec, seed int64) (string, error) {
	ds, err := loadDataset(sp)
	if err != nil {
		return "", err
	}
	next, _, err := sp.stream(ds, seed)
	if err != nil {
		return "", err
	}
	return sqlDigest(draw(next, streamDigestLen)), nil
}

// stream returns the workload's op stream for a run seed and, for pooled
// workloads, the pool in generation order.
func (sp spec) stream(ds *datagen.Dataset, seed int64) (func() string, []string, error) {
	if sp.pool == 0 {
		next, err := sp.gen(ds, genSeed(sp, seed))
		return next, nil, err
	}
	gen, err := sp.gen(ds, genSeed(sp, sp.suite))
	if err != nil {
		return nil, nil, err
	}
	pool := draw(gen, sp.pool)
	rng := rand.New(rand.NewSource(genSeed(sp, seed)))
	var perm []int
	return func() string {
		if len(perm) == 0 {
			perm = rng.Perm(len(pool))
		}
		sql := pool[perm[0]]
		perm = perm[1:]
		return sql
	}, pool, nil
}

func draw(next func() string, n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = next()
	}
	return out
}

// metric is one reported number.
type metric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what one run reports.
type result struct {
	Workload  string   `json:"workload"`
	Seed      int64    `json:"seed"`
	Trace     bool     `json:"trace"`
	SQLDigest string   `json:"sql_sha256"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Failures  []string `json:"failures,omitempty"`
	// Metrics are the ones the final line reports; Extra are printed and
	// saved for context only.
	Metrics []metric `json:"metrics"`
	Extra   []metric `json:"extra"`
	// ChunkOpsPerSec are the steal-free throughputs of the end-to-end
	// loop's quiet whole chunks, whose median is ops_per_s;
	// ChunkStealShare is the steal share of each of its chunks.
	ChunkOpsPerSec  []float64 `json:"chunk_ops_per_s,omitempty"`
	ChunkStealShare []float64 `json:"chunk_steal_share,omitempty"`
}

// emit prints every metric, saves the full report and ends standard output
// with the one-line JSON result.
func (res *result) emit(path string) error {
	fmt.Printf("workload %s seed %d trace %v sql_sha256 %s\n", res.Workload, res.Seed, res.Trace, res.SQLDigest)
	for _, m := range append(append([]metric(nil), res.Metrics...), res.Extra...) {
		fmt.Printf("%-36s %16.6f %s\n", m.Name, m.Value, m.Unit)
	}
	for _, f := range res.Failures {
		fmt.Fprintln(os.Stderr, "e2ebench: FAIL:", f)
	}
	b, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return err
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := map[string]value{}
	for _, m := range res.Metrics {
		ms[m.Name] = value{m.Value, m.Unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Failed == 0, res.Attempted, res.Failed, ms})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// runner carries one run's state. Everything runs on one goroutine, the
// closed-loop client, apart from the heap sampler.
type runner struct {
	sp     spec
	seed   int64
	budget time.Duration
	traced bool
	out    string

	sys    *bytecard.System
	ref    *reference
	oracle *tsOracle // timeseries-scan only
	heap   *heapSampler
	next   func() string
	pool   []string
	// drawn counts the statements taken from next.
	drawn int

	attempted, failed int
	failures          []string
}

// nextSQL draws the op stream's next statement.
func (r *runner) nextSQL() string {
	r.drawn++
	return r.next()
}

func (r *runner) reportPath() string {
	return filepath.Join(r.out, fmt.Sprintf("%s-seed%d-trace%d.json", r.sp.name, r.seed, boolInt(r.traced)))
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

func (r *runner) fail(format string, args ...any) {
	r.failed++
	if len(r.failures) < 20 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// setupTimes are one bytecard.Open's parts, and the highest live heap
// seen during it.
type setupTimes struct{ total, gen, train, peakMiB float64 }

// setup opens the system setupReps times, each from scratch, and keeps
// the last. Each open is timed from dataset generation to a ready System; the
// dataset generation and the models' training seconds are its parts.
func (r *runner) setup() ([]setupTimes, error) {
	var times []setupTimes
	dir := filepath.Join(r.out, fmt.Sprintf("store-%d", os.Getpid()))
	for i := 0; i < setupReps; i++ {
		r.sys = nil
		runtime.GC()
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
		r.heap.record(true)
		start := time.Now()
		ds, err := loadDataset(r.sp)
		if err != nil {
			return nil, err
		}
		gen := time.Since(start)
		sys, err := bytecard.OpenDataset(ds, bytecard.Options{Dataset: r.sp.dataset, Scale: r.sp.scale, StoreDir: dir})
		if err != nil {
			os.RemoveAll(dir)
			return nil, err
		}
		total := time.Since(start)
		r.heap.record(false)
		var train float64
		if sys.TrainReport != nil {
			train = sys.TrainReport.TotalSeconds
		}
		times = append(times, setupTimes{total: total.Seconds(), gen: gen.Seconds(), train: train, peakMiB: quantile(r.heap.take(), 1)})
		r.sys = sys
	}
	return times, nil
}

func (r *runner) run() (*result, error) {
	r.heap = startHeapSampler()
	defer r.heap.close()
	times, err := r.setup()
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(r.sys.Options.StoreDir)
	res := &result{Workload: r.sp.name, Seed: r.seed, Trace: r.traced}
	// The digest covers the stream's leading statements; a second stream
	// with the same seed replays them for the run.
	next, _, err := r.sp.stream(r.sys.Dataset, r.seed)
	if err != nil {
		return nil, err
	}
	res.SQLDigest = sqlDigest(draw(next, streamDigestLen))
	if r.next, r.pool, err = r.sp.stream(r.sys.Dataset, r.seed); err != nil {
		return nil, err
	}
	r.ref = newReference(r.sys.Dataset)
	if r.sp.dataset == "timeseries" {
		if r.oracle, err = newTSOracle(r.sys.Dataset); err != nil {
			return nil, err
		}
	}
	truths, err := r.warmUp()
	if err != nil {
		return nil, err
	}
	if r.traced {
		err = r.layerRun(res, times, truths)
	} else {
		err = r.endToEndRun(res, times, truths)
	}
	if err != nil {
		return nil, err
	}
	res.Attempted, res.Failed, res.Failures = r.attempted, r.failed, r.failures
	res.Extra = append(res.Extra, metric{"fail_ratio", float64(r.failed) / float64(max(r.attempted, 1)), "ratio"})
	return res, nil
}

// warmUp runs the pool's first cycle untimed, checking every result
// against the reference engine, or runs the stream's warm-up statements.
// It returns the truths of the pool's distinct statements.
func (r *runner) warmUp() ([]truth, error) {
	if r.sp.pool == 0 {
		for i := 0; i < r.sp.warm; i++ {
			sql := r.nextSQL()
			r.attempted++
			if r.sp.plan {
				if _, _, err := planOp(r.sys.Engine, sql); err != nil {
					r.fail("warm-up plan %q: %v", sql, err)
				}
				continue
			}
			res, err := r.sys.Run(sql)
			r.checkResult(sql, res, err, -1)
		}
		return nil, nil
	}
	for _, sql := range r.pool {
		if _, err := r.ref.digest(sql, true); err != nil {
			return nil, fmt.Errorf("%q: %w", sql, err)
		}
	}
	seen := map[string]bool{}
	var truths []truth
	for range r.pool {
		sql := r.nextSQL()
		r.attempted++
		res, err := r.sys.Run(sql)
		if !r.checkResult(sql, res, err, -1) || seen[sql] {
			continue
		}
		seen[sql] = true
		truths = append(truths, truth{sql, res.Metrics.ActualFinalRows})
	}
	return truths, nil
}

// checkResult checks one executed op's result; see check.
func (r *runner) checkResult(sql string, res *engine.Result, err error, i int) bool {
	var got digest
	if err == nil {
		got = digestOf(res)
	}
	return r.check(sql, got, err, i)
}

// check compares the digest of one executed op's result with the
// workload's references and counts a failure on error or mismatch. Pool
// statements are checked against the reference engine's memoized digests.
// Stream statements are checked against the timeseries oracle when the
// workload has one, and against the reference engine when it has none or
// when the op is one of the window's measured ops (i is the measured op
// index, -1 outside the measured loops); the leading naive measured ops
// are also checked against the brute-force oracle.
func (r *runner) check(sql string, got digest, err error, i int) bool {
	if err != nil {
		r.fail("%q: %v", sql, err)
		return false
	}
	if r.oracle != nil {
		want, err := r.oracle.digest(sql)
		if !r.agree(sql, "oracle", got, want, err) {
			return false
		}
	}
	if r.oracle == nil || (i >= 0 && i < r.sp.window) {
		want, err := r.ref.digest(sql, r.sp.pool > 0)
		if !r.agree(sql, "reference", got, want, err) {
			return false
		}
	}
	if i >= 0 && i < r.sp.naive {
		want, err := r.ref.naive(sql)
		if !r.agree(sql, "naive", got, want, err) {
			return false
		}
	}
	return true
}

func (r *runner) agree(sql, name string, got, want digest, err error) bool {
	if err != nil {
		r.fail("%q: %v", sql, err)
		return false
	}
	if d := got.diff(want); d != "" {
		r.fail("%q: %s mismatch: %s", sql, name, d)
		return false
	}
	return true
}

// planOp is one plan-adhoc op: parse, analyze and plan, no execution.
func planOp(e *engine.Engine, sql string) (*engine.Query, *engine.Plan, error) {
	q, err := analyze(e, sql)
	if err != nil {
		return nil, nil, err
	}
	p, err := e.Plan(q)
	return q, p, err
}

func analyze(e *engine.Engine, sql string) (*engine.Query, error) {
	stmt, err := sqlparse.Parse(sql)
	if err != nil {
		return nil, err
	}
	return e.Analyze(stmt)
}

// more reports whether a measured loop goes on after i ops and busy op
// time: until the op time reaches budget and at least minOps ran, and over
// a pool until a cycle ends.
func (r *runner) more(i int, busy, budget time.Duration, minOps int) bool {
	if busy < budget || i < minOps {
		return true
	}
	return r.sp.pool > 0 && i%r.sp.pool != 0
}

// chunk is the number of ops per throughput sample.
func (r *runner) chunk() int { return max(r.sp.pool, r.sp.chunk) }

// window is the number of leading measured ops the counters cover.
func (r *runner) window() int {
	if r.sp.pool > 0 {
		return r.sp.pool
	}
	return r.sp.window
}

// planned is a plan-only op kept for the post-loop execution check.
type planned struct {
	sql string
	q   *engine.Query
	p   *engine.Plan
}

// sampleSet picks the seeded sample of window ops whose plans are executed.
func (r *runner) sampleSet() map[int]bool {
	rng := rand.New(rand.NewSource(genSeed(r.sp, r.seed) ^ 0x5eed))
	set := map[int]bool{}
	for _, i := range rng.Perm(r.sp.window)[:r.sp.sample] {
		set[i] = true
	}
	return set
}

// loopStats are one timed loop's figures.
type loopStats struct {
	lat  []float64 // per-op latency, ms
	busy time.Duration
	// shares[j] is the share of the machine's CPU time that the host gave
	// to other guests (steal) while the loop ran its j-th chunk of ops;
	// the last chunk may be partial. stealShare is the same over the loop.
	shares     []float64
	stealShare float64
	// live holds the live heap at the end of each GC cycle, MiB, when the
	// heap sampler is on.
	live []float64
	rt   rtStats // runtime counters over the loop
}

func (l loopStats) opsPerSec() float64 { return float64(len(l.lat)) / l.busy.Seconds() }

// chunkRates is the throughput of each whole chunk of c ops, given each
// op's time in ms. Their median moves less under a passing disturbance
// than the mean.
func chunkRates(ms []float64, c int) []float64 {
	var rates []float64
	for k := 0; k+c <= len(ms); k += c {
		rates = append(rates, float64(c)/sum(ms[k:k+c])*1e3)
	}
	return rates
}

// quiet returns the steal-free latencies, in ms, of the ops in the loop's
// quiet chunks of c ops, chunk by chunk. A chunk's steal-free latencies are
// its ops' latencies scaled by 1 minus the chunk's steal share. The quiet
// chunks are the whole ones with the least steal, taken until they hold
// half the loop's ops and at least minOps of them, together with every
// other whole chunk whose steal share is no higher than the last one taken
// or at most quietShare. The last, partial chunk is added only when the
// whole ones fall short.
//
// On a shared host the wall clock also runs while the host gives this
// machine's CPUs to other guests, and their work on the same cores slows
// this one's beyond the time they take: a plan-adhoc run with 7% steal
// read 13% fewer ops/s, one with 27% steal 34% fewer. The steal share
// shows which chunks such neighbours disturbed, so the timings are taken
// over the others.
func (l loopStats) quiet(c, minOps int) [][]float64 {
	// quietShare is a steal share too small to set a chunk apart: one
	// 10 ms tick in a chunk of one second on two CPUs is 0.5%.
	const quietShare = 0.02
	n := len(l.lat)
	var (
		out   [][]float64
		got   int
		need  = max((n+1)/2, min(minOps, n))
		limit = quietShare
	)
	take := func(j int) {
		ops := l.lat[j*c : min((j+1)*c, n)]
		free := make([]float64, len(ops))
		for k, v := range ops {
			free[k] = v * (1 - l.shares[j])
		}
		out = append(out, free)
		got += len(ops)
	}
	order := make([]int, n/c)
	for j := range order {
		order[j] = j
	}
	sort.SliceStable(order, func(a, b int) bool { return l.shares[order[a]] < l.shares[order[b]] })
	for _, j := range order {
		if got >= need && l.shares[j] > limit {
			break
		}
		if got < need {
			limit = max(limit, l.shares[j])
		}
		take(j)
	}
	if got < need && n%c != 0 {
		take(n / c)
	}
	return out
}

// medianOr returns the median of vs, or def when vs is empty.
func medianOr(vs []float64, def float64) float64 {
	if len(vs) == 0 {
		return def
	}
	return quantile(append([]float64(nil), vs...), 0.5)
}

// untracedLoop is the closed loop through the public entry points: each
// op is System.Run, or Parse, Analyze and Plan for plan-only workloads.
// It runs until the op time reaches budget and at least minOps ops ran;
// first is the measured index of its first op. Checks run between ops,
// outside the timed intervals, and onOp is called for each op that passed.
// At the start of each chunk of ops the loop reads the host's steal time,
// from which it derives each chunk's steal share.
// With deferChecks, an executed op's check waits until the loop's runtime
// counters have been read, so that the checker's allocations and CPU time
// stay out of them: the loop keeps each op's result digest, and the
// statements are drawn again afterwards from a replay of the stream.
func (r *runner) untracedLoop(budget time.Duration, first, minOps int, deferChecks bool, onOp func(i int, sql string, res *engine.Result, q *engine.Query, p *engine.Plan)) loopStats {
	type pending struct {
		got digest
		err error
	}
	var (
		st    loopStats
		later []pending
		from  = r.drawn
	)
	rt0 := readRuntime()
	c := r.chunk()
	marks := []mark{markNow()}
	for k := 0; r.more(k, st.busy, budget, minOps); k++ {
		if k > 0 && k%c == 0 {
			marks = append(marks, markNow())
		}
		i, sql := first+k, r.nextSQL()
		r.attempted++
		var (
			res *engine.Result
			q   *engine.Query
			p   *engine.Plan
			err error
		)
		start := time.Now()
		if r.sp.plan {
			q, p, err = planOp(r.sys.Engine, sql)
		} else {
			res, err = r.sys.Run(sql)
		}
		d := time.Since(start)
		st.busy += d
		st.lat = append(st.lat, float64(d)/1e6)
		switch {
		case r.sp.plan:
			if err != nil {
				r.fail("plan %q: %v", sql, err)
				continue
			}
		case deferChecks:
			var got digest
			if err == nil {
				got = digestOf(res)
			}
			later = append(later, pending{got, err})
			continue
		case !r.checkResult(sql, res, err, i):
			continue
		}
		if onOp != nil {
			onOp(i, sql, res, q, p)
		}
	}
	st.rt = readRuntime().sub(rt0)
	st.live = r.heap.take()
	marks = append(marks, markNow())
	ncpu := runtime.NumCPU()
	for j := 1; j < len(marks); j++ {
		st.shares = append(st.shares, stealShare(marks[j-1], marks[j], ncpu))
	}
	st.stealShare = stealShare(marks[0], marks[len(marks)-1], ncpu)
	if len(later) > 0 {
		replay, _, err := r.sp.stream(r.sys.Dataset, r.seed)
		if err != nil {
			r.fail("replaying the op stream: %v", err)
			return st
		}
		for k := 0; k < from; k++ {
			replay()
		}
		for k, p := range later {
			r.check(replay(), p.got, p.err, first+k)
		}
	}
	return st
}

// endToEndRun is the untraced run behind the -trace 0 metrics.
func (r *runner) endToEndRun(res *result, times []setupTimes, truths []truth) error {
	var (
		sampled []planned
		inWin   map[int]bool
	)
	if r.sp.sample > 0 {
		inWin = r.sampleSet()
	}
	minOps := r.window()
	if r.sp.pool > 0 {
		minOps = minTimedOps
	}
	r.heap.record(true)
	st := r.untracedLoop(r.budget, 0, minOps, false, func(i int, sql string, out *engine.Result, q *engine.Query, p *engine.Plan) {
		if r.sp.plan && inWin[i] {
			sampled = append(sampled, planned{sql, q, p})
		} else if !r.sp.plan && r.sp.pool == 0 && i < r.sp.window {
			truths = append(truths, truth{sql, out.Metrics.ActualFinalRows})
		}
	})
	r.heap.record(false)
	for _, s := range sampled {
		out, err := r.sys.Engine.Execute(s.p)
		r.checkResult(s.sql, out, err, -1)
	}
	qerrs, err := r.qerrors(truths)
	if err != nil {
		return err
	}
	n := len(st.lat)
	lat := append([]float64(nil), st.lat...)
	var setup, setupPeaks []float64
	for _, t := range times {
		setup = append(setup, t.total)
		setupPeaks = append(setupPeaks, t.peakMiB)
	}
	// The peak heap is the higher of the opens' median high-water mark
	// and the loop's 90th-percentile live heap over its GC cycles. The
	// loop's highest cycles turn on whether a cycle happened to end at the
	// heaviest query's high point: over ten stats-join runs the
	// 99th percentile ranged from 57 to 74 MiB, the p90 from 27 to 30.
	live := st.live
	setupPeak, runPeak := quantile(setupPeaks, 0.5), quantile(live, 0.9)
	// The op timings are steal-free and taken over the loop's quietest
	// chunks; see loopStats.quiet. The wall-clock figures over every op
	// are printed with them.
	var free []float64
	for _, ch := range st.quiet(r.chunk(), minTimedOps) {
		free = append(free, ch...)
		if len(ch) == r.chunk() {
			res.ChunkOpsPerSec = append(res.ChunkOpsPerSec, float64(len(ch))/sum(ch)*1e3)
		}
	}
	res.ChunkStealShare = st.shares
	m := len(free)
	res.Metrics = append([]metric{
		{"setup_s", quantile(setup, 0.5), "s"},
		{"ops_per_s", medianOr(res.ChunkOpsPerSec, float64(m)/max(sum(free)/1e3, 1e-9)), "ops/s"},
		{"op_p50_ms", quantile(free, 0.5), "ms"},
		{"op_p99_ms", quantile(free, 0.99), "ms"},
		{"peak_heap_mb", max(setupPeak, runPeak), "MiB"},
	}, qerrMetrics(qerrs)...)
	res.Extra = []metric{
		{"wall.ops_per_s", medianOr(chunkRates(st.lat, r.chunk()), st.opsPerSec()), "ops/s"},
		{"wall.op_p50_ms", quantile(lat, 0.5), "ms"},
		{"wall.op_p99_ms", quantile(lat, 0.99), "ms"},
		{"host.steal_share", st.stealShare, "ratio"},
		{"samples.ops", float64(m), "count"},
		{"samples.beyond_p99", float64(beyond(m, 0.99)), "count"},
		{"samples.measured_ops", float64(n), "count"},
		{"samples.qerror_queries", float64(len(qerrs)), "count"},
		{"samples.setup_reps", float64(len(times)), "count"},
		{"op_mean_ms", st.busy.Seconds() * 1e3 / float64(max(n, 1)), "ms"},
		{"mean_ops_per_s", st.opsPerSec(), "ops/s"},
		{"heap.setup_peak_mb", setupPeak, "MiB"},
		{"heap.run_p90_mb", runPeak, "MiB"},
		{"heap.run_p99_mb", quantile(live, 0.99), "MiB"},
		{"heap.run_max_mb", quantile(live, 1), "MiB"},
		{"samples.gc_cycles", float64(len(live)), "count"},
	}
	return nil
}

// truth is a statement's exact final-row count, as an engine executed it.
type truth struct {
	sql  string
	rows int64
}

// qerrors returns, for each statement, the q-error of the final-row
// estimate of a fresh plan against its truth. The plan is made without the
// plan cache, whose template entries would replay another statement's
// estimate: on timeseries-scan, where a handful of templates cover every
// op, that made the executed plans' q-errors turn on which window came
// first, and their p50 ranged from 2.5 to 7.4 across seeds.
func (r *runner) qerrors(truths []truth) ([]float64, error) {
	if r.sp.qset > 0 {
		var err error
		if truths, err = r.qsetTruths(); err != nil {
			return nil, err
		}
	}
	var qerrs []float64
	for _, t := range truths {
		q, err := analyze(r.sys.Engine, t.sql)
		if err != nil {
			return nil, fmt.Errorf("q-error of %q: %w", t.sql, err)
		}
		p, err := r.sys.Engine.PlanWith(q, r.sys.Engine.Est)
		if err != nil {
			return nil, fmt.Errorf("q-error of %q: %w", t.sql, err)
		}
		qerrs = append(qerrs, obs.QError(p.EstFinalRows, float64(t.rows)))
	}
	return qerrs, nil
}

// qsetTruths executes a plan-only workload's q-error set. The set is fixed,
// whatever the run seed: the run's own sample of 30 executed plans gave a
// qerror_p90 from 1.3 to 3.5 over six seeds.
func (r *runner) qsetTruths() ([]truth, error) {
	next, err := r.sp.gen(r.sys.Dataset, genSeed(r.sp, r.sp.suite))
	if err != nil {
		return nil, err
	}
	var truths []truth
	for _, sql := range draw(next, r.sp.qset) {
		res, err := r.sys.Run(sql)
		if err != nil {
			return nil, fmt.Errorf("q-error set %q: %w", sql, err)
		}
		truths = append(truths, truth{sql, res.Metrics.ActualFinalRows})
	}
	return truths, nil
}

// qerrMetrics reports the q-errors of a run's executed statements, each
// distinct statement counted once: the pool's warm-up cycle, the window's
// stream ops, or the q-error set of a plan-only workload.
func qerrMetrics(qerrs []float64) []metric {
	return []metric{
		{"qerror_p50", quantile(qerrs, 0.5), "ratio"},
		{"qerror_p90", quantile(qerrs, 0.9), "ratio"},
	}
}
