package workload

import (
	"strings"
	"testing"

	"bytecard/internal/datagen"
	"bytecard/internal/engine"
	"bytecard/internal/sqlparse"
)

func TestJOBHybridShape(t *testing.T) {
	ds := datagen.IMDB(datagen.Config{Scale: 0.02, Seed: 1})
	w, err := JOBHybrid(ds, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(w.Queries) != 100 {
		t.Fatalf("queries = %d, want 100", len(w.Queries))
	}
	for _, q := range w.Queries {
		if q.NumTables < 2 || q.NumTables > 5 {
			t.Errorf("query joins %d tables, want 2-5: %s", q.NumTables, q.SQL)
		}
		if q.Kind == KindAgg && (q.NumGroupKeys < 1 || q.NumGroupKeys > 2) {
			t.Errorf("agg query has %d group keys: %s", q.NumGroupKeys, q.SQL)
		}
	}
}

func TestSTATSHybridShape(t *testing.T) {
	ds := datagen.STATS(datagen.Config{Scale: 0.02, Seed: 1})
	w, err := STATSHybrid(ds, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(w.Queries) != 200 {
		t.Fatalf("queries = %d", len(w.Queries))
	}
	maxTables := 0
	for _, q := range w.Queries {
		if q.NumTables > maxTables {
			maxTables = q.NumTables
		}
	}
	if maxTables < 5 {
		t.Errorf("max joined tables = %d, expected deep joins (up to 8)", maxTables)
	}
}

func TestAEOLUSOnlineShape(t *testing.T) {
	ds := datagen.AEOLUS(datagen.Config{Scale: 0.01, Seed: 1})
	w, err := AEOLUSOnline(ds, 3)
	if err != nil {
		t.Fatal(err)
	}
	aggCount := 0
	for _, q := range w.Queries {
		if q.Kind == KindAgg {
			aggCount++
			if q.NumGroupKeys < 2 || q.NumGroupKeys > 4 {
				t.Errorf("AEOLUS agg group keys = %d, want 2-4", q.NumGroupKeys)
			}
		}
	}
	if aggCount < 50 {
		t.Errorf("aggregation queries = %d, want aggregation-heavy workload", aggCount)
	}
}

// TestAllQueriesExecute is the critical validity test: every generated
// query must parse, analyze, and execute on its dataset.
func TestAllQueriesExecute(t *testing.T) {
	ds := datagen.Toy(datagen.Config{Scale: 1, Seed: 5})
	w, err := Generate(ds, GenConfig{
		Name: "toy", NumQueries: 40, MinTables: 1, MaxTables: 2,
		AggFraction: 0.5, MinGroupKeys: 1, MaxGroupKeys: 2, Seed: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	exec := engine.New(ds.DB, ds.Schema, engine.HeuristicEstimator{})
	for _, q := range w.Queries {
		if _, err := sqlparse.Parse(q.SQL); err != nil {
			t.Fatalf("unparseable: %s: %v", q.SQL, err)
		}
		if _, err := exec.Run(q.SQL); err != nil {
			t.Fatalf("unexecutable: %s: %v", q.SQL, err)
		}
	}
}

func TestHybridQueriesExecuteOnIMDB(t *testing.T) {
	ds := datagen.IMDB(datagen.Config{Scale: 0.01, Seed: 2})
	w, err := JOBHybrid(ds, 7)
	if err != nil {
		t.Fatal(err)
	}
	exec := engine.New(ds.DB, ds.Schema, engine.HeuristicEstimator{})
	for _, q := range w.Queries[:25] {
		if _, err := exec.Run(q.SQL); err != nil {
			t.Fatalf("query failed: %s: %v", q.SQL, err)
		}
	}
}

func TestDeterministicGeneration(t *testing.T) {
	cases := []struct {
		ds  *datagen.Dataset
		cfg GenConfig
	}{
		{datagen.Toy(datagen.Config{Scale: 1, Seed: 6}),
			GenConfig{Name: "x", NumQueries: 10, MinTables: 1, MaxTables: 2, AggFraction: 0.5, MaxGroupKeys: 1, Seed: 9}},
		// Three or more tables give randomSubtree a choice of edges to grow
		// by, which must not depend on map iteration order.
		{datagen.STATS(datagen.Config{Scale: 0.02, Seed: 1}),
			GenConfig{Name: "y", NumQueries: 30, MinTables: 3, MaxTables: 4, AggFraction: 0.5, MaxGroupKeys: 1, Seed: 9}},
	}
	for _, c := range cases {
		a, err := Generate(c.ds, c.cfg)
		if err != nil || len(a.Queries) != c.cfg.NumQueries {
			t.Fatalf("%s: generated %d queries, err %v", c.cfg.Name, len(a.Queries), err)
		}
		for run := 0; run < 3; run++ {
			b, _ := Generate(c.ds, c.cfg)
			for i := range a.Queries {
				if a.Queries[i].SQL != b.Queries[i].SQL {
					t.Fatalf("%s: generation not deterministic at %d", c.cfg.Name, i)
				}
			}
		}
	}
}

func TestCountProbes(t *testing.T) {
	ds := datagen.Toy(datagen.Config{Scale: 1, Seed: 7})
	w, err := CountProbes(ds, 30, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(w.Queries) != 30 {
		t.Fatalf("probes = %d", len(w.Queries))
	}
	exec := engine.New(ds.DB, ds.Schema, engine.HeuristicEstimator{})
	var joins int
	for _, q := range w.Queries {
		if !strings.HasPrefix(q.SQL, "SELECT COUNT(*)") {
			t.Errorf("probe is not a COUNT: %s", q.SQL)
		}
		if q.NumTables > 1 {
			joins++
		}
		if _, err := exec.Run(q.SQL); err != nil {
			t.Fatalf("probe failed: %s: %v", q.SQL, err)
		}
	}
	if joins == 0 {
		t.Error("expected some join probes")
	}
}

func TestNDVProbes(t *testing.T) {
	ds := datagen.Toy(datagen.Config{Scale: 1, Seed: 8})
	w, err := NDVProbes(ds, 20, 1)
	if err != nil {
		t.Fatal(err)
	}
	exec := engine.New(ds.DB, ds.Schema, engine.HeuristicEstimator{})
	for _, q := range w.Queries {
		if !strings.Contains(q.SQL, "COUNT(DISTINCT") {
			t.Errorf("probe is not COUNT DISTINCT: %s", q.SQL)
		}
		res, err := exec.Run(q.SQL)
		if err != nil {
			t.Fatalf("probe failed: %s: %v", q.SQL, err)
		}
		if _, err := res.ScalarInt(); err != nil {
			t.Errorf("probe result not scalar: %s", q.SQL)
		}
	}
}

func TestComputeStats(t *testing.T) {
	ds := datagen.Toy(datagen.Config{Scale: 1, Seed: 9})
	w, err := Generate(ds, GenConfig{
		Name: "toy", NumQueries: 20, MinTables: 2, MaxTables: 2,
		AggFraction: 0.5, MinGroupKeys: 1, MaxGroupKeys: 2, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	exec := engine.New(ds.DB, ds.Schema, engine.HeuristicEstimator{})
	s, err := ComputeStats(w, exec)
	if err != nil {
		t.Fatal(err)
	}
	if s.Queries != 20 || s.MinTables != 2 || s.MaxTables != 2 {
		t.Errorf("stats = %+v", s)
	}
	if s.JoinTemplates < 1 {
		t.Error("join templates missing")
	}
	if s.MaxCard < s.MinCard {
		t.Errorf("card range inverted: [%g, %g]", s.MinCard, s.MaxCard)
	}
	if s.HitMaxTables == 0 {
		t.Error("HitMaxTables must count queries at the maximum")
	}
}

func TestCountForm(t *testing.T) {
	in := "SELECT d.cat, COUNT(*) FROM fact f, dim d WHERE f.dim_id = d.id GROUP BY d.cat"
	want := "SELECT COUNT(*) FROM fact f, dim d WHERE f.dim_id = d.id"
	if got := CountForm(in); got != want {
		t.Errorf("CountForm = %q", got)
	}
	plain := "SELECT COUNT(*) FROM t WHERE a = 1"
	if CountForm(plain) != plain {
		t.Error("count queries must pass through")
	}
}

func TestByName(t *testing.T) {
	for _, mk := range []func(datagen.Config) *datagen.Dataset{datagen.Toy} {
		ds := mk(datagen.Config{Scale: 1, Seed: 10})
		w, err := ByName(ds, 1)
		if err != nil {
			t.Fatal(err)
		}
		if len(w.Queries) == 0 {
			t.Error("empty workload")
		}
	}
}

// TestGeneratedSQLRoundtripsParser: every generated query must re-parse to
// an identical rendering (parser/printer consistency on realistic SQL).
func TestGeneratedSQLRoundtripsParser(t *testing.T) {
	ds := datagen.STATS(datagen.Config{Scale: 0.02, Seed: 11})
	w, err := STATSHybrid(ds, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range w.Queries {
		stmt, err := sqlparse.Parse(q.SQL)
		if err != nil {
			t.Fatalf("parse %q: %v", q.SQL, err)
		}
		again, err := sqlparse.Parse(stmt.String())
		if err != nil {
			t.Fatalf("re-parse %q: %v", stmt.String(), err)
		}
		if stmt.String() != again.String() {
			t.Fatalf("unstable rendering:\n  %s\n  %s", stmt, again)
		}
	}
}

func TestFocusTableBias(t *testing.T) {
	ds := datagen.STATS(datagen.Config{Scale: 0.02, Seed: 12})
	w, err := Generate(ds, GenConfig{
		Name: "x", NumQueries: 60, MinTables: 2, MaxTables: 4,
		AggFraction: 0, MaxPreds: 4, Seed: 13,
	})
	if err != nil {
		t.Fatal(err)
	}
	// A healthy fraction of multi-predicate queries must put >= 2
	// predicates on one table (the pattern driving reader decisions).
	multi, focused := 0, 0
	for _, q := range w.Queries {
		if q.NumPreds < 2 {
			continue
		}
		multi++
		stmt := sqlparse.MustParse(q.SQL)
		perTable := map[string]int{}
		var count func(c *sqlparse.Cond)
		count = func(c *sqlparse.Cond) {
			if c == nil {
				return
			}
			if c.Kind == sqlparse.CondCmp {
				if !c.IsJoin() {
					perTable[c.Left.Qualifier]++
				}
				return
			}
			for _, ch := range c.Children {
				count(ch)
			}
		}
		count(stmt.Where)
		for _, n := range perTable {
			if n >= 2 {
				focused++
				break
			}
		}
	}
	if multi == 0 || focused*2 < multi {
		t.Errorf("focused %d of %d multi-pred queries; bias ineffective", focused, multi)
	}
}
