package main

import (
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"bytecard/internal/engine"
	"bytecard/internal/types"
)

// The tests run the benchmark in child processes: the test binary re-runs
// itself as the benchmark when E2EBENCH_CHILD is set.
func TestMain(m *testing.M) {
	if os.Getenv("E2EBENCH_CHILD") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// child runs the benchmark with args in a separate process and returns its
// standard output.
func child(t *testing.T, args ...string) string {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "E2EBENCH_CHILD=1")
	var stderr strings.Builder
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("e2ebench %v: %v\n%s", args, err, stderr.String())
	}
	return string(out)
}

// TestSQLStreamDigest checks that one seed gives a byte-identical SQL
// stream in two processes and another seed a different one.
func TestSQLStreamDigest(t *testing.T) {
	for _, sp := range specs {
		t.Run(sp.name, func(t *testing.T) {
			a := child(t, "-workload", sp.name, "-seed", "7", "-sql-digest")
			b := child(t, "-workload", sp.name, "-seed", "7", "-sql-digest")
			c := child(t, "-workload", sp.name, "-seed", "8", "-sql-digest")
			if a != b {
				t.Errorf("seed 7 gave two digests: %q and %q", a, b)
			}
			if a == c {
				t.Errorf("seeds 7 and 8 gave the same digest %q", a)
			}
		})
	}
}

// repeatable are the counters a run with one seed must reproduce exactly
// in another process: they depend only on the SQL stream and the data.
var repeatable = []string{
	"storage.blocks_read_per_op",
	"storage.blocks_skipped_per_op",
	"engine.rows_materialized_per_op",
	"engine.hash_resizes_per_op",
	"core.est_calls_per_op",
	"bn.filter_calls",
	"bn.conj_calls",
	"factorjoin.join_calls",
	"factorjoin.batch_items",
	"rbx.groupndv_calls",
	"engine.plancache_hit_ratio",
	"qerror_p50",
	"qerror_p90",
}

// TestCountersRepeat runs each workload's traced run twice, in separate
// processes with one seed, and compares the deterministic counters.
func TestCountersRepeat(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload twice")
	}
	for _, sp := range specs {
		t.Run(sp.name, func(t *testing.T) {
			var runs [2]map[string]float64
			for k := range runs {
				dir := t.TempDir()
				child(t, "-workload", sp.name, "-seed", "3", "-seconds", "0.2", "-trace", "1", "-out", dir)
				runs[k] = readReport(t, filepath.Join(dir, sp.name+"-seed3-trace1.json"))
			}
			for _, name := range repeatable {
				a, ok := runs[0][name]
				if !ok {
					t.Errorf("%s missing from the report", name)
					continue
				}
				if b := runs[1][name]; a != b {
					t.Errorf("%s: %v in one process, %v in the other", name, a, b)
				}
			}
		})
	}
}

func readReport(t *testing.T, path string) map[string]float64 {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var res result
	if err := json.Unmarshal(b, &res); err != nil {
		t.Fatal(err)
	}
	if res.Failed != 0 {
		t.Fatalf("%s: %d of %d ops failed: %v", path, res.Failed, res.Attempted, res.Failures)
	}
	m := map[string]float64{}
	for _, x := range append(res.Metrics, res.Extra...) {
		m[x.Name] = x.Value
	}
	return m
}

// TestDigest checks that a result digest ignores row order and last-bit
// float noise, and catches a changed cell or a float in the wrong group.
func TestDigest(t *testing.T) {
	row := func(k string, n int64, f float64) []types.Datum {
		return []types.Datum{types.Str(k), types.Int(n), types.Float(f)}
	}
	of := func(rs ...[]types.Datum) digest { return digestOf(&engine.Result{Rows: rs}) }
	want := of(row("a", 1, 2.5), row("b", 2, 1e6/3), row("c", 3, 0.1))
	for _, c := range []struct {
		name string
		got  digest
		same bool
	}{
		{"reordered", of(row("c", 3, 0.1), row("a", 1, 2.5), row("b", 2, 1e6/3)), true},
		{"last-bit float", of(row("a", 1, 2.5), row("b", 2, math.Nextafter(1e6/3, 1e9)), row("c", 3, 0.1)), true},
		{"changed int", of(row("a", 1, 2.5), row("b", 4, 1e6/3), row("c", 3, 0.1)), false},
		{"changed string", of(row("a", 1, 2.5), row("d", 2, 1e6/3), row("c", 3, 0.1)), false},
		{"swapped floats", of(row("a", 1, 0.1), row("b", 2, 1e6/3), row("c", 3, 2.5)), false},
		{"float off by 1e-6", of(row("a", 1, 2.5), row("b", 2, 1e6/3*(1+1e-6)), row("c", 3, 0.1)), false},
		{"missing row", of(row("a", 1, 2.5), row("b", 2, 1e6/3)), false},
		{"duplicated row", of(row("a", 1, 2.5), row("b", 2, 1e6/3), row("c", 3, 0.1), row("c", 3, 0.1)), false},
	} {
		if d := c.got.diff(want); (d == "") != c.same {
			t.Errorf("%s: diff %q, want same = %v", c.name, d, c.same)
		}
	}
}

// TestQuietChunks checks which chunks the end-to-end timings are taken
// over and how their latencies are scaled.
func TestQuietChunks(t *testing.T) {
	lat := []float64{1, 1, 2, 2, 3, 3, 4, 4, 5}
	for _, c := range []struct {
		name   string
		shares []float64
		minOps int
		want   [][]float64
	}{
		{"quietest until half", []float64{0.3, 0, 0.1, 0.01, 0.5}, 0,
			[][]float64{{2, 2}, {3.96, 3.96}, {2.7, 2.7}}},
		{"ties with the last taken", []float64{0.1, 0, 0.1, 0.1, 0}, 0,
			[][]float64{{2, 2}, {0.9, 0.9}, {2.7, 2.7}, {3.6, 3.6}}},
		{"quiet host takes every whole chunk", []float64{0, 0.01, 0, 0, 0}, 0,
			[][]float64{{1, 1}, {3, 3}, {4, 4}, {1.98, 1.98}}},
		{"partial chunk when short", []float64{0, 0, 0, 0, 0.5}, 1000,
			[][]float64{{1, 1}, {2, 2}, {3, 3}, {4, 4}, {2.5}}},
	} {
		got := loopStats{lat: lat, shares: c.shares}.quiet(2, c.minOps)
		if len(got) != len(c.want) {
			t.Errorf("%s: %v, want %v", c.name, got, c.want)
			continue
		}
		for j := range got {
			for k := range got[j] {
				if math.Abs(got[j][k]-c.want[j][k]) > 1e-9 {
					t.Errorf("%s: %v, want %v", c.name, got, c.want)
				}
			}
		}
	}
}
