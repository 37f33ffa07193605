package bytecard

import (
	"reflect"
	"testing"

	"bytecard/internal/engine"
)

// Scan parity system tests: with the real ByteCard estimator in the
// planner, the staged BlockScan (zone-map block skipping,
// predicate/projection/limit pushdown, late materialization) must be an
// I/O optimization only — results byte-identical to the one-pass reader
// across the JOB-Hybrid, STATS-Hybrid, and TimeSeries-Probes workloads,
// while never reading more blocks than it.

// runWithReader executes sql with ForceReader pinned to reader ("" runs
// the default staged plan), restoring the engine's setting afterwards.
func runWithReader(t *testing.T, sys *System, sql, reader string) *engine.Result {
	t.Helper()
	prev := sys.Engine.ForceReader
	sys.Engine.ForceReader = reader
	defer func() { sys.Engine.ForceReader = prev }()
	res, err := sys.Run(sql)
	if err != nil {
		t.Fatalf("%s (ForceReader=%q): %v", sql, reader, err)
	}
	return res
}

// TestStagedMatchesOnePassWorkloads runs every workload query twice — the
// default staged plan, then the forced one-pass reader — on the same
// trained system and requires byte-identical result sets; single-table
// queries are also checked against the brute-force oracle. The plan cache
// stays hot for the default runs, while the forced runs plan cache-free.
func TestStagedMatchesOnePassWorkloads(t *testing.T) {
	for _, dataset := range []string{"imdb", "stats", "timeseries"} {
		sys := fastpathSystem(t, dataset)
		w, err := sys.Workload(17)
		if err != nil {
			t.Fatal(err)
		}
		queries := w.Queries
		if len(queries) > 20 {
			queries = queries[:20]
		}
		var stagedBlocks, onePassBlocks, skipped int64
		oracle := 0
		for _, wq := range queries {
			staged := runWithReader(t, sys, wq.SQL, "")
			onePass := runWithReader(t, sys, wq.SQL, "single-stage")
			if !reflect.DeepEqual(staged.Columns, onePass.Columns) || !reflect.DeepEqual(staged.Rows, onePass.Rows) {
				t.Errorf("%s/%s: staged result diverges from one-pass", dataset, wq.SQL)
			}
			if s, o := staged.Metrics.IO.BlocksRead(), onePass.Metrics.IO.BlocksRead(); s > o {
				t.Errorf("%s/%s: staged read %d blocks, one-pass %d — staging must never read more",
					dataset, wq.SQL, s, o)
			}
			if wq.NumTables <= 2 {
				naive, err := sys.Engine.RunNaive(wq.SQL)
				if err != nil {
					t.Fatalf("%s/%s (naive): %v", dataset, wq.SQL, err)
				}
				if !reflect.DeepEqual(staged.Rows, naive.Rows) {
					t.Errorf("%s/%s: staged result diverges from the naive oracle", dataset, wq.SQL)
				}
				oracle++
			}
			stagedBlocks += staged.Metrics.IO.BlocksRead()
			onePassBlocks += onePass.Metrics.IO.BlocksRead()
			skipped += staged.Metrics.IO.BlocksSkipped()
		}
		t.Logf("%s: %d queries (%d oracle-checked), blocks %d staged vs %d one-pass (%d skipped)",
			dataset, len(queries), oracle, stagedBlocks, onePassBlocks, skipped)
		// The time-series probes are built to be zone-skippable: narrow
		// append-ordered windows must show a strict read reduction.
		if dataset == "timeseries" && (stagedBlocks >= onePassBlocks || skipped == 0) {
			t.Errorf("timeseries: staged read %d blocks vs %d one-pass, %d skipped — expected strict reduction",
				stagedBlocks, onePassBlocks, skipped)
		}
	}
}
