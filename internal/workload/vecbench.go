package workload

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"repro/internal/algebra"
	"repro/internal/relation"
	"repro/internal/schema"
	"repro/internal/storage"
	"repro/internal/value"
)

// VecBenchConfig drives the VEC experiment: the same scan-heavy queries as
// PAR, executed through the row-at-a-time Volcano tier and the vectorized
// tier (interpreted and compiled expressions), all serially, so the
// comparison isolates execution style from parallelism — plus the session
// defaults a user actually gets (parallel degree GOMAXPROCS, vectorized,
// compiled), so a default that is slower than serial cannot hide.
type VecBenchConfig struct {
	// Rows is the customer table size. Default 100000.
	Rows int
	// Seed drives the deterministic generator.
	Seed int64
	// Iters is the number of measured runs per query per mode. Default 20.
	Iters int
	// Warmup runs per query per mode are executed unmeasured. Default 2.
	Warmup int
}

func (c *VecBenchConfig) defaults() {
	if c.Rows <= 0 {
		c.Rows = 100000
	}
	if c.Iters <= 0 {
		c.Iters = 20
	}
	if c.Warmup <= 0 {
		c.Warmup = 2
	}
}

// VecBenchCatalog builds the VEC dataset: one Rows-row customer table with
// no secondary indexes, so every benched query takes a heap-scan path,
// plus an emp_dim dimension table (one row per possible employee count,
// banded) that serves as the build side of the join workloads.
func VecBenchCatalog(cfg VecBenchConfig) (*storage.Catalog, error) {
	cfg.defaults()
	cat, err := ParallelBenchCatalog(ParallelBenchConfig{Rows: cfg.Rows, Seed: cfg.Seed})
	if err != nil {
		return nil, err
	}
	dimSchema := schema.MustNew("emp_dim", []schema.Attr{
		{Name: "employees", Kind: value.KindInt, Required: true},
		{Name: "band", Kind: value.KindString},
	}, "employees")
	dim, err := cat.Create(dimSchema, false)
	if err != nil {
		return nil, err
	}
	// Customers generates employees in [1, 10000]; cover the whole range so
	// every probe row matches exactly one build row.
	for e := 1; e <= 10000; e++ {
		if _, err := dim.Insert(relation.NewTuple(
			value.Int(int64(e)), value.Str(fmt.Sprintf("b%02d", e/500)))); err != nil {
			return nil, err
		}
	}
	return cat, nil
}

// VecMode is one execution mode's measurements for one query.
type VecMode struct {
	QPS  float64 `json:"qps"`
	P50  int64   `json:"p50_us"`
	P95  int64   `json:"p95_us"`
	P99  int64   `json:"p99_us"`
	Mean int64   `json:"mean_us"`
	// RowsPerSec is table rows scanned per second (table size × q/s) — the
	// vectorized tier's headline number.
	RowsPerSec float64 `json:"rows_per_sec"`
	// ClonesPerQuery is the storage.TupleClones delta per execution: the
	// zero-clone scan paths must report 0 here.
	ClonesPerQuery int64 `json:"clones_per_query"`
	// Plan is the operator pipeline the mode ran (EXPLAIN's steps joined
	// by " -> "), so two modes that ran the same plan are visible as such.
	Plan string `json:"plan"`
}

// VecBenchCase is one query's four-way comparison.
type VecBenchCase struct {
	Name  string `json:"name"`
	Query string `json:"query"`
	// Rows is the result cardinality (identical across modes by assertion).
	Rows       int     `json:"result_rows"`
	Scalar     VecMode `json:"scalar"`
	Vectorized VecMode `json:"vectorized"`
	Compiled   VecMode `json:"compiled"`
	// Default runs an untouched qql.NewSession: parallel degree
	// GOMAXPROCS, vectorized, compiled.
	Default VecMode `json:"default"`
	// SpeedupVectorized is vectorized q/s over scalar q/s;
	// SpeedupCompiled is vectorized+compiled q/s over scalar q/s;
	// SpeedupDefault is default q/s over serial compiled q/s.
	SpeedupVectorized float64 `json:"speedup_vectorized"`
	SpeedupCompiled   float64 `json:"speedup_compiled"`
	SpeedupDefault    float64 `json:"speedup_default"`
}

// VecSessions are the four sessions the VEC experiment compares, all over
// one catalog: scalar (vectorization off), vectorized with interpreted
// expressions and vectorized with compiled expressions — those three at
// parallel degree 1 — and a session with its defaults untouched. Plan
// reports the plan a session runs for a query (for a qql session, its
// EXPLAIN's ExecInfo.PlanShape).
type VecSessions struct {
	Scalar, Vectorized, Compiled, Default Querier
	Plan                                  func(sess Querier, q string) (string, error)
}

// VecBenchReport is the machine-readable VEC result (BENCH_VEC.json).
type VecBenchReport struct {
	Rows      int            `json:"rows"`
	Cores     int            `json:"cores"`
	BatchSize int            `json:"batch_size"`
	Iters     int            `json:"iters"`
	Cases     []VecBenchCase `json:"cases"`
	Note      string         `json:"note"`
}

// VecBenchQueries is the VEC workload: a pure COUNT(*) scan (dispatch and
// clone overhead only), an unindexed WHERE filter, a quality-tag filter,
// a materializing projection, a hash equi-join, grouped aggregation, and
// a join feeding grouped aggregation — the shapes the batch tier routes.
func VecBenchQueries() []struct{ Name, Q string } {
	return []struct{ Name, Q string }{
		{"full_scan", `SELECT COUNT(*) AS n FROM customer`},
		{"filtered_scan", `SELECT COUNT(*) AS n FROM customer WHERE employees >= 5000`},
		{"quality_filtered_scan", `SELECT COUNT(*) AS n FROM customer WITH QUALITY employees@source != 'estimate'`},
		{"projected_scan", `SELECT co_name, employees FROM customer WHERE employees >= 9000`},
		{"hash_join", `SELECT COUNT(*) AS n FROM customer JOIN emp_dim ON customer.employees = emp_dim.employees`},
		{"grouped_agg", `SELECT employees@source AS src, COUNT(*) AS n, SUM(employees) AS s FROM customer GROUP BY employees@source`},
		{"join_grouped_agg", `SELECT band, COUNT(*) AS n FROM customer JOIN emp_dim ON customer.employees = emp_dim.employees GROUP BY band`},
	}
}

// vecTimeModes measures one query in every mode: warmup runs, then Iters
// timed rounds that each run every mode once, in an order shuffled per
// round so machine drift falls on all modes alike. Each timed run starts
// after a collection, so no mode pays for the garbage another left
// behind (the scalar tier's is large). It tracks each mode's result
// cardinality, per-run clone delta and plan.
func vecTimeModes(sessions []Querier, plan func(Querier, string) (string, error), q string, warmup, iters int, rng *rand.Rand) (rows []int, clones []int64, plans []string, lats [][]time.Duration, err error) {
	n := len(sessions)
	rows, clones, plans = make([]int, n), make([]int64, n), make([]string, n)
	lats = make([][]time.Duration, n)
	for m, sess := range sessions {
		for i := 0; i < warmup; i++ {
			out, err := sess.Query(q)
			if err != nil {
				return nil, nil, nil, nil, err
			}
			rows[m] = out.Len()
		}
		if plans[m], err = plan(sess, q); err != nil {
			return nil, nil, nil, nil, err
		}
	}
	for i := 0; i < iters; i++ {
		for _, m := range rng.Perm(n) {
			runtime.GC()
			before := storage.TupleClones()
			t0 := time.Now()
			out, err := sessions[m].Query(q)
			if err != nil {
				return nil, nil, nil, nil, err
			}
			lats[m] = append(lats[m], time.Since(t0))
			clones[m] += storage.TupleClones() - before
			if out.Len() != rows[m] {
				return nil, nil, nil, nil, fmt.Errorf("unstable cardinality: %d then %d", rows[m], out.Len())
			}
		}
	}
	for m := range clones {
		clones[m] /= int64(iters)
	}
	return rows, clones, plans, lats, nil
}

func vecSummarize(lats []time.Duration, tableRows int, clones int64, plan string) VecMode {
	s := summarize(lats)
	return VecMode{
		QPS: s.QPS, P50: s.P50, P95: s.P95, P99: s.P99, Mean: s.Mean,
		RowsPerSec:     s.QPS * float64(tableRows),
		ClonesPerQuery: clones,
		Plan:           plan,
	}
}

// RunVecBench times each VEC query under the four sessions, verifying all
// return the same cardinality.
func RunVecBench(cfg VecBenchConfig, sess VecSessions) (*VecBenchReport, error) {
	cfg.defaults()
	report := &VecBenchReport{
		Rows:      cfg.Rows,
		Cores:     runtime.NumCPU(),
		BatchSize: algebra.DefaultBatchSize,
		Iters:     cfg.Iters,
		Note:      "batch-at-a-time execution amortizes iterator dispatch; compiled predicates drop the per-row AST walk; zero-clone shared segment reads kill copy traffic in both tiers; the default session adds morsel-driven parallel columnar scans with per-segment partial aggregates, and keeps a bare COUNT(*) on the serial plan",
	}
	modes := []Querier{sess.Scalar, sess.Vectorized, sess.Compiled, sess.Default}
	rng := rand.New(rand.NewSource(cfg.Seed))
	for _, q := range VecBenchQueries() {
		rows, clones, plans, lats, err := vecTimeModes(modes, sess.Plan, q.Q, cfg.Warmup, cfg.Iters, rng)
		if err != nil {
			return nil, fmt.Errorf("workload: VEC %s: %w", q.Name, err)
		}
		for m := range rows {
			if rows[m] != rows[0] {
				return nil, fmt.Errorf("workload: VEC %s: cardinalities diverge: %v (scalar, vectorized, compiled, default)", q.Name, rows)
			}
		}
		c := VecBenchCase{
			Name:       q.Name,
			Query:      q.Q,
			Rows:       rows[0],
			Scalar:     vecSummarize(lats[0], cfg.Rows, clones[0], plans[0]),
			Vectorized: vecSummarize(lats[1], cfg.Rows, clones[1], plans[1]),
			Compiled:   vecSummarize(lats[2], cfg.Rows, clones[2], plans[2]),
			Default:    vecSummarize(lats[3], cfg.Rows, clones[3], plans[3]),
		}
		if c.Scalar.QPS > 0 {
			c.SpeedupVectorized = c.Vectorized.QPS / c.Scalar.QPS
			c.SpeedupCompiled = c.Compiled.QPS / c.Scalar.QPS
		}
		if c.Compiled.QPS > 0 {
			c.SpeedupDefault = c.Default.QPS / c.Compiled.QPS
		}
		report.Cases = append(report.Cases, c)
	}
	return report, nil
}
