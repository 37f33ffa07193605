package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"bytecard/internal/datagen"
	"bytecard/internal/storage"
	"bytecard/internal/types"
)

// The generators below mirror the shapes of internal/workload (STATS-Hybrid,
// AEOLUS-Online, TimeSeries-Probes) but are the benchmark's own: every
// choice ranges over slices, never over maps, so one seed yields one
// byte-identical SQL stream in every process. The program under test only
// ever receives the SQL text.

// shape bounds one join-query generator.
type shape struct {
	minTables, maxTables int
	maxPreds             int
	aggFraction          float64
	minKeys, maxKeys     int
}

var (
	statsShape  = shape{minTables: 2, maxTables: 8, maxPreds: 4, aggFraction: 0.3, minKeys: 1, maxKeys: 2}
	aeolusShape = shape{minTables: 2, maxTables: 5, maxPreds: 4, aggFraction: 0.5, minKeys: 2, maxKeys: 4}
)

type edge struct{ a, ca, b, cb string }

type column struct {
	name string
	kind types.Kind
	ndv  int
}

// joinGen draws connected join queries over a dataset's join graph.
type joinGen struct {
	db        *storage.Database
	rng       *rand.Rand
	sh        shape
	tables    []string
	adj       map[string][]edge
	predCols  map[string][]column
	groupCols map[string][]column
	aggCols   map[string][]column
}

func newJoinGen(ds *datagen.Dataset, sh shape, seed int64) *joinGen {
	g := &joinGen{
		db:        ds.DB,
		rng:       rand.New(rand.NewSource(seed)),
		sh:        sh,
		tables:    ds.DB.TableNames(),
		adj:       map[string][]edge{},
		predCols:  map[string][]column{},
		groupCols: map[string][]column{},
		aggCols:   map[string][]column{},
	}
	sort.Strings(g.tables)
	joinCol := map[string]bool{}
	for _, p := range ds.Schema.JoinPatterns() {
		e := edge{a: p.Left.Table, ca: p.Left.Column, b: p.Right.Table, cb: p.Right.Column}
		g.adj[e.a] = append(g.adj[e.a], e)
		g.adj[e.b] = append(g.adj[e.b], e)
		joinCol[e.a+"."+e.ca] = true
		joinCol[e.b+"."+e.cb] = true
	}
	for _, name := range g.tables {
		t := ds.DB.Table(name)
		for i := 0; i < t.NumCols(); i++ {
			c := t.Col(i)
			if !c.Kind().Scalar() || c.Name() == "id" || joinCol[name+"."+c.Name()] {
				continue
			}
			col := column{name: c.Name(), kind: c.Kind(), ndv: sampledNDV(t, c.Name(), 400)}
			g.predCols[name] = append(g.predCols[name], col)
			if col.ndv >= 2 {
				g.groupCols[name] = append(g.groupCols[name], col)
			}
			if col.kind != types.KindString {
				g.aggCols[name] = append(g.aggCols[name], col)
			}
		}
	}
	return g
}

// sampledNDV counts distinct values over an evenly spaced row sample.
func sampledNDV(t *storage.Table, col string, probe int) int {
	c := t.ColByName(col)
	step := 1
	if n := t.NumRows(); n > probe {
		step = n / probe
	}
	seen := map[uint64]bool{}
	for i := 0; i < t.NumRows(); i += step {
		seen[c.Value(i).Hash64()] = true
	}
	return len(seen)
}

// subtree grows a connected table set of the given size from a random
// start, extending by one random frontier edge at a time.
func (g *joinGen) subtree(size int) ([]string, []edge, bool) {
	order := []string{g.tables[g.rng.Intn(len(g.tables))]}
	in := map[string]bool{order[0]: true}
	var conds []edge
	for len(order) < size {
		var cands []edge
		for _, t := range order {
			for _, e := range g.adj[t] {
				if !in[e.a] || !in[e.b] {
					cands = append(cands, e)
				}
			}
		}
		if len(cands) == 0 {
			return nil, nil, false
		}
		e := cands[g.rng.Intn(len(cands))]
		next := e.b
		if in[e.b] {
			next = e.a
		}
		in[next] = true
		order = append(order, next)
		conds = append(conds, e)
	}
	return order, conds, true
}

// pred draws one predicate on table with a literal taken from a live row.
// Date-like columns are favoured, as in analytical date-range filters.
func (g *joinGen) pred(table string) (string, bool) {
	cols := g.predCols[table]
	if len(cols) == 0 {
		return "", false
	}
	col := cols[g.rng.Intn(len(cols))]
	if g.rng.Float64() < 0.4 {
		for _, c := range cols {
			if strings.Contains(c.name, "year") || strings.Contains(c.name, "date") {
				col = c
				break
			}
		}
	}
	t := g.db.Table(table)
	val := t.ColByName(col.name).Value(g.rng.Intn(t.NumRows()))
	var op string
	switch {
	case col.kind == types.KindString:
		op = "="
	case col.ndv <= 20:
		op = []string{"=", "=", "<=", ">="}[g.rng.Intn(4)]
	default:
		op = []string{"<", "<=", ">", ">=", "="}[g.rng.Intn(5)]
	}
	return fmt.Sprintf("%s.%s %s %s", table, col.name, op, val), true
}

// next returns one join query: a connected subtree of minTables..maxTables
// tables, 1..maxPreds predicates concentrated on one focus table, and with
// probability aggFraction a GROUP BY on minKeys..maxKeys keys.
func (g *joinGen) next() string {
	for {
		size := g.sh.minTables + g.rng.Intn(g.sh.maxTables-g.sh.minTables+1)
		tables, conds, ok := g.subtree(size)
		if !ok {
			continue
		}
		var where []string
		for _, e := range conds {
			where = append(where, fmt.Sprintf("%s.%s = %s.%s", e.a, e.ca, e.b, e.cb))
		}
		want := 1 + g.rng.Intn(g.sh.maxPreds)
		focus := tables[g.rng.Intn(len(tables))]
		for i, added := 0, 0; i < 2*want && added < want; i++ {
			table := focus
			if added >= 2 {
				table = tables[g.rng.Intn(len(tables))]
			}
			if p, ok := g.pred(table); ok {
				where = append(where, p)
				added++
			}
		}
		from := strings.Join(tables, ", ")
		cond := strings.Join(where, " AND ")
		if g.rng.Float64() >= g.sh.aggFraction {
			return fmt.Sprintf("SELECT COUNT(*) FROM %s WHERE %s", from, cond)
		}
		keys := g.groupKeys(tables)
		if len(keys) == 0 {
			continue
		}
		sel := append(append([]string(nil), keys...), "COUNT(*)")
		if agg, ok := g.agg(tables); ok {
			sel = append(sel, agg)
		}
		return fmt.Sprintf("SELECT %s FROM %s WHERE %s GROUP BY %s",
			strings.Join(sel, ", "), from, cond, strings.Join(keys, ", "))
	}
}

func (g *joinGen) groupKeys(tables []string) []string {
	want := g.sh.minKeys + g.rng.Intn(g.sh.maxKeys-g.sh.minKeys+1)
	var pool []string
	for _, t := range tables {
		for _, c := range g.groupCols[t] {
			pool = append(pool, t+"."+c.name)
		}
	}
	g.rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	if want > len(pool) {
		want = len(pool)
	}
	keys := append([]string(nil), pool[:want]...)
	sort.Strings(keys)
	return keys
}

func (g *joinGen) agg(tables []string) (string, bool) {
	var pool []string
	for _, t := range tables {
		for _, c := range g.aggCols[t] {
			pool = append(pool, t+"."+c.name)
		}
	}
	if len(pool) == 0 {
		return "", false
	}
	col := pool[g.rng.Intn(len(pool))]
	return []string{"AVG", "SUM", "MIN", "MAX"}[g.rng.Intn(4)] + "(" + col + ")", true
}

// tsGen draws TimeSeries-Probes-shaped single-table operations over the
// readings fact table, redrawing window, metric and host for every op.
type tsGen struct {
	rng      *rand.Rand
	readings *storage.Table
}

func newTSGen(ds *datagen.Dataset, seed int64) (*tsGen, error) {
	r := ds.DB.Table("readings")
	if r == nil {
		return nil, fmt.Errorf("dataset %s has no readings table", ds.Name)
	}
	return &tsGen{rng: rand.New(rand.NewSource(seed)), readings: r}, nil
}

func (g *tsGen) next() string {
	n := g.readings.NumRows()
	ts := g.readings.ColByName("ts")
	at := g.rng.Intn(n)
	end := at + 1 + g.rng.Intn(n/50+1)
	if end >= n {
		end = n - 1
	}
	where := []string{
		fmt.Sprintf("readings.ts >= %d", ts.Value(at).I),
		fmt.Sprintf("readings.ts <= %d", ts.Value(end).I),
	}
	if g.rng.Intn(2) == 0 {
		where = append(where, fmt.Sprintf("readings.metric = %d", 1+g.rng.Intn(6)))
	}
	switch g.rng.Intn(4) {
	case 0: // tag-cardinality probe in a window
		tag := []string{"host", "sensor", "device_id"}[g.rng.Intn(3)]
		return fmt.Sprintf("SELECT COUNT(DISTINCT readings.%s) FROM readings WHERE %s", tag, strings.Join(where, " AND "))
	case 1: // host-equality probe
		host := g.readings.ColByName("host").Value(g.rng.Intn(n))
		where = append(where, "readings.host = "+host.String())
	}
	return "SELECT COUNT(*) FROM readings WHERE " + strings.Join(where, " AND ")
}

// sqlDigest returns the SHA-256 of a statement list, one statement a line.
func sqlDigest(sqls []string) string {
	h := sha256.New()
	for _, s := range sqls {
		h.Write([]byte(s))
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))
}
