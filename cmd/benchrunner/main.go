// Command benchrunner regenerates every table and figure of the paper plus
// the quantitative ablations documented in EXPERIMENTS.md.
//
//	benchrunner            # run every experiment
//	benchrunner -exp T2    # run one (T1 T2 F1 F2 F3 F4 F5 A X1 X2 X3 X4 AB1 AB2 AB3 AB4 AB5)
//	benchrunner -list      # list experiment ids
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/algebra"
	"repro/internal/audit"
	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/derive"
	"repro/internal/inspect"
	"repro/internal/qql"
	"repro/internal/quality"
	"repro/internal/relation"
	"repro/internal/server"
	"repro/internal/storage"
	"repro/internal/storage/wal"
	"repro/internal/value"
	"repro/internal/workload"
)

type experiment struct {
	id    string
	title string
	run   func() error
}

// PAR / PIPE experiment knobs (package-level so the experiment closures
// see the parsed values).
var (
	parRows   = flag.Int("par-rows", 100000, "PAR: customer table size")
	parDegree = flag.Int("par-degree", 0, "PAR: parallel fan-out (0 = GOMAXPROCS)")
	parIters  = flag.Int("par-iters", 0, "PAR: measured runs per query per mode (0 = default)")
	parOut    = flag.String("par-out", "BENCH_PAR.json", "PAR: machine-readable output path ('' to skip)")

	pipeRows  = flag.Int("pipe-rows", 5000, "PIPE: INSERT statements per ingest mode")
	pipeDepth = flag.Int("pipe-depth", 16, "PIPE: pipelined mode's in-flight window")
	pipeBatch = flag.Int("pipe-batch", 50, "PIPE: statements per batch frame")
	pipeOut   = flag.String("pipe-out", "BENCH_PIPE.json", "PIPE: machine-readable output path ('' to skip)")

	cacheRows  = flag.Int("cache-rows", 20000, "CACHE: customer table size")
	cacheIters = flag.Int("cache-iters", 3000, "CACHE: measured executions per cache mode")
	cacheOut   = flag.String("cache-out", "BENCH_CACHE.json", "CACHE: machine-readable output path ('' to skip)")

	vecRows  = flag.Int("vec-rows", 100000, "VEC: customer table size")
	vecIters = flag.Int("vec-iters", 0, "VEC: measured runs per query per mode (0 = default)")
	vecOut   = flag.String("vec-out", "BENCH_VEC.json", "VEC: machine-readable output path ('' to skip)")

	walRows    = flag.Int("wal-rows", 4000, "WAL: INSERT statements per fsync policy")
	walClients = flag.Int("wal-clients", 16, "WAL: concurrent batched connections")
	walBatch   = flag.Int("wal-batch", 1, "WAL: statements per batch frame (one commit each)")
	walOut     = flag.String("wal-out", "BENCH_WAL.json", "WAL: machine-readable output path ('' to skip)")
)

func main() {
	expFlag := flag.String("exp", "", "experiment id to run (default: all)")
	list := flag.Bool("list", false, "list experiment ids")
	flag.Parse()

	exps := experiments()
	if *list {
		for _, e := range exps {
			fmt.Printf("%-4s %s\n", e.id, e.title)
		}
		return
	}
	ran := 0
	for _, e := range exps {
		if *expFlag != "" && !strings.EqualFold(e.id, *expFlag) {
			continue
		}
		fmt.Printf("==== %s: %s ====\n", e.id, e.title)
		if err := e.run(); err != nil {
			fmt.Fprintf(os.Stderr, "%s failed: %v\n", e.id, err)
			os.Exit(1)
		}
		fmt.Println()
		ran++
	}
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "unknown experiment %q (use -list)\n", *expFlag)
		os.Exit(2)
	}
}

func experiments() []experiment {
	return []experiment{
		{"T1", "Table 1: customer information (untagged)", runT1},
		{"T2", "Table 2: customer information with quality tags", runT2},
		{"F1", "Figure 1: quality attribute taxonomy", runF1},
		{"F2", "Figure 2: the four-step methodology pipeline", runF2},
		{"F3", "Figure 3: trading application view", runF3},
		{"F4", "Figure 4: parameter view", runF4},
		{"F5", "Figure 5: quality view", runF5},
		{"A", "Appendix A: candidate quality attributes", runA},
		{"X1", "§1.2: query-time filtering over quality tags", runX1},
		{"X2", "§3.4: view integration subsumption (age vs creation_time)", runX2},
		{"X3", "§4: clearing-house grading by application profile", runX3},
		{"X4", "§4: erred-transaction audit trace", runX4},
		{"AB1", "ablation: cell tagging overhead", runAB1},
		{"AB2", "ablation: quality predicate selectivity sweep (index vs scan)", runAB2},
		{"AB3", "ablation: polygen source propagation cost vs join size", runAB3},
		{"AB4", "ablation: view integration scaling", runAB4},
		{"AB5", "ablation: SPC detection of injected defect bursts", runAB5},
		{"SRV", "server mode: concurrent clients vs qqld over TCP", runSRV},
		{"PAR", "parallel scans: segmented heap fan-out vs serial", runPAR},
		{"PIPE", "wire v2 ingest: serial vs pipelined vs batched", runPIPE},
		{"CACHE", "plan cache: cold vs AST-cached vs bound-plan-cached hot query", runCACHE},
		{"VEC", "vectorized execution: scalar vs batch vs batch+compiled expressions vs session defaults", runVEC},
		{"WAL", "durability: fsync per commit vs group commit vs no fsync", runWAL},
	}
}

// runVEC measures the same scan-heavy queries through the Volcano tier and
// the vectorized tier (interpreted and compiled expressions), all serial so
// the comparison isolates execution style, plus an untouched default
// session, and writes BENCH_VEC.json so the execution-engine trajectory is
// recorded across PRs.
func runVEC() error {
	cfg := workload.VecBenchConfig{Rows: *vecRows, Seed: 7, Iters: *vecIters}
	cat, err := workload.VecBenchCatalog(cfg)
	if err != nil {
		return err
	}
	mkSession := func(vec, compiled bool) *qql.Session {
		s := qql.NewSession(cat)
		s.SetNow(workload.Epoch)
		s.SetParallelism(1)
		s.SetVectorized(vec)
		s.SetCompiledExprs(compiled)
		return s
	}
	// The default mode touches nothing but the clock: parallel degree
	// GOMAXPROCS, vectorized, compiled — what a user actually gets.
	dflt := qql.NewSession(cat)
	dflt.SetNow(workload.Epoch)
	report, err := workload.RunVecBench(cfg, workload.VecSessions{
		Scalar: mkSession(false, false), Vectorized: mkSession(true, false),
		Compiled: mkSession(true, true), Default: dflt,
		Plan: func(sess workload.Querier, q string) (string, error) {
			s := sess.(*qql.Session)
			if _, err := s.Exec("EXPLAIN " + q); err != nil {
				return "", err
			}
			return s.LastExecInfo().PlanShape, nil
		}})
	if err != nil {
		return err
	}
	fmt.Printf("%d-row customer table, no indexes; batch size %d, %d iterations per query per mode, %d core(s), default degree %d\n",
		report.Rows, report.BatchSize, report.Iters, report.Cores, runtime.GOMAXPROCS(0))
	fmt.Printf("%-24s %-10s %-12s %-12s %-12s %-12s %-9s %s\n",
		"case", "rows", "scalar p50", "vec p50", "vec+comp", "default", "dflt/comp", "clones s/v/c/d")
	for _, c := range report.Cases {
		fmt.Printf("%-24s %-10d %-12s %-12s %-12s %-12s %-9s %d/%d/%d/%d\n",
			c.Name, c.Rows,
			time.Duration(c.Scalar.P50*1000).String(),
			time.Duration(c.Vectorized.P50*1000).String(),
			time.Duration(c.Compiled.P50*1000).String(),
			time.Duration(c.Default.P50*1000).String(),
			fmt.Sprintf("%.2fx", c.SpeedupDefault),
			c.Scalar.ClonesPerQuery, c.Vectorized.ClonesPerQuery, c.Compiled.ClonesPerQuery, c.Default.ClonesPerQuery)
	}
	if *vecOut != "" {
		raw, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*vecOut, append(raw, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", *vecOut)
	}
	fmt.Println("shape:", report.Note)
	return nil
}

// runWAL ingests the same concurrent batched INSERT stream into three
// durable servers differing only in WAL fsync policy and writes the
// machine-readable BENCH_WAL.json so the durability-cost trajectory is
// recorded across PRs. The headline number is group commit's speedup over
// per-commit fsync at identical durability for acknowledged writes.
func runWAL() error {
	report, err := workload.RunWALBench(workload.WALBenchConfig{
		Rows: *walRows, Clients: *walClients, Batch: *walBatch,
		StartServer: func(l *wal.Log) (string, func() error, error) {
			srv := server.New(l.Catalog(), server.Config{
				Addr: "127.0.0.1:0", MaxConns: *walClients + 4, Now: workload.Epoch, WAL: l})
			if err := srv.Listen(); err != nil {
				return "", nil, err
			}
			go srv.Serve()
			stop := func() error {
				ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
				defer cancel()
				return srv.Shutdown(ctx)
			}
			return srv.Addr().String(), stop, nil
		},
	})
	if err != nil {
		return err
	}
	fmt.Printf("%d INSERTs per policy from %d connections, %d statements per batch commit, %d core(s)\n",
		report.Rows, report.Clients, report.Batch, report.Cores)
	fmt.Printf("%-14s %-10s %-10s %-10s %-10s %-10s %s\n",
		"mode", "stmts/s", "commits", "fsyncs", "grp max", "wal MiB", "errors")
	for _, m := range report.Modes {
		fmt.Printf("%-14s %-10.0f %-10d %-10d %-10d %-10.1f %d\n",
			m.Name, m.StmtsPerSec, m.Commits, m.Fsyncs, m.GroupMax,
			float64(m.WALBytes)/(1<<20), m.Errors)
	}
	fmt.Printf("speedup vs fsync-always: group %.2fx, off %.2fx\n",
		report.SpeedupGroupVsAlways, report.SpeedupOffVsAlways)
	if *walOut != "" {
		raw, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*walOut, append(raw, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", *walOut)
	}
	fmt.Println("shape:", report.Note)
	return nil
}

// runCACHE measures one hot indexed SELECT under the three cache
// configurations — no cache, AST tier only, AST + bound-plan tiers — and
// writes the machine-readable BENCH_CACHE.json so the compile-path
// trajectory is recorded across PRs.
func runCACHE() error {
	cfg := workload.CacheBenchConfig{Rows: *cacheRows, Iters: *cacheIters}
	cat, query, err := workload.CacheBenchCatalog(cfg)
	if err != nil {
		return err
	}
	mkSession := func(cache *qql.PlanCache) *qql.Session {
		s := qql.NewSession(cat)
		s.SetNow(workload.Epoch)
		if cache != nil {
			s.SetPlanCache(cache)
		}
		return s
	}
	hits := func(c *qql.PlanCache) func() (uint64, uint64) {
		return func() (uint64, uint64) {
			st := c.Stats()
			return st.Hits, st.PlanHits
		}
	}
	astCache := qql.NewPlanCache(qql.DefaultCacheSize)
	astCache.SetPlanTier(false)
	planCache := qql.NewPlanCache(qql.DefaultCacheSize)
	report, err := workload.RunCacheBench(cfg, query, []workload.CacheBenchMode{
		{Name: "cold", Q: mkSession(nil)},
		{Name: "ast-cached", Q: mkSession(astCache), CacheHits: hits(astCache)},
		{Name: "plan-cached", Q: mkSession(planCache), CacheHits: hits(planCache)},
	})
	if err != nil {
		return err
	}
	fmt.Printf("%d-row customer table, hash index on co_name; %d iterations per mode, %d core(s)\n",
		report.Rows, report.Iters, report.Cores)
	fmt.Printf("%-14s %-10s %-11s %-11s %-11s %-9s %s\n",
		"mode", "q/s", "p50", "p95", "p99", "ast hits", "plan hits")
	for _, m := range report.Modes {
		fmt.Printf("%-14s %-10.0f %-11s %-11s %-11s %-9d %d\n",
			m.Name, m.QPS,
			time.Duration(m.P50MS*float64(time.Millisecond)).Round(time.Microsecond),
			time.Duration(m.P95MS*float64(time.Millisecond)).Round(time.Microsecond),
			time.Duration(m.P99MS*float64(time.Millisecond)).Round(time.Microsecond),
			m.ASTHits, m.PlanHits)
	}
	fmt.Printf("speedups: ast/cold %.2fx, plan/cold %.2fx, plan/ast %.2fx\n",
		report.SpeedupASTVsCold, report.SpeedupPlanVsCold, report.SpeedupPlanVsAST)
	if *cacheOut != "" {
		raw, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*cacheOut, append(raw, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", *cacheOut)
	}
	fmt.Println("shape:", report.Note)
	return nil
}

// runPIPE measures the same INSERT stream over wire v1 (one round-trip per
// statement), wire v2 pipelined (request IDs, N in flight) and wire v2
// batched (one multi-statement frame), and writes the machine-readable
// BENCH_PIPE.json so the ingest-path trajectory is recorded across PRs.
func runPIPE() error {
	srv := server.New(storage.NewCatalog(), server.Config{Addr: "127.0.0.1:0", MaxConns: 16, Now: workload.Epoch})
	if err := srv.Listen(); err != nil {
		return err
	}
	go srv.Serve()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			fmt.Fprintf(os.Stderr, "benchrunner: shutdown: %v\n", err)
		}
	}()

	report, err := workload.RunPipelineBench(workload.PipelineBenchConfig{
		Addr: srv.Addr().String(), Rows: *pipeRows, Depth: *pipeDepth, Batch: *pipeBatch,
	})
	if err != nil {
		return err
	}
	fmt.Printf("%d INSERTs per mode over one conn each; depth %d, batch %d, %d core(s)\n",
		report.Rows, report.Depth, report.Batch, report.Cores)
	fmt.Printf("%-14s %-10s %-10s %-11s %-11s %-11s %s\n",
		"mode", "requests", "stmts/s", "p50", "p95", "p99", "errors")
	for _, m := range report.Modes {
		fmt.Printf("%-14s %-10d %-10.0f %-11s %-11s %-11s %d\n",
			m.Name, m.Requests, m.StmtsPerSec,
			time.Duration(m.P50MS*float64(time.Millisecond)).Round(time.Microsecond),
			time.Duration(m.P95MS*float64(time.Millisecond)).Round(time.Microsecond),
			time.Duration(m.P99MS*float64(time.Millisecond)).Round(time.Microsecond),
			m.Errors)
	}
	fmt.Printf("speedup vs v1-serial: pipelined %.2fx, batched %.2fx\n",
		report.SpeedupPipelined, report.SpeedupBatched)
	if *pipeOut != "" {
		raw, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*pipeOut, append(raw, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", *pipeOut)
	}
	fmt.Println("shape:", report.Note)
	return nil
}

// runPAR measures serial vs parallel segmented heap scans over a large
// unindexed customer table — with and without a predicate fused into the
// scan workers — and writes the machine-readable BENCH_PAR.json so the
// perf trajectory is recorded across PRs.
func runPAR() error {
	cfg := workload.ParallelBenchConfig{Rows: *parRows, Seed: 7, Degree: *parDegree, Iters: *parIters}
	cat, err := workload.ParallelBenchCatalog(cfg)
	if err != nil {
		return err
	}
	mkSession := func(degree int) *qql.Session {
		s := qql.NewSession(cat)
		s.SetNow(workload.Epoch)
		s.SetParallelism(degree)
		return s
	}
	report, err := workload.RunParallelBench(cfg, mkSession(1), mkSession(*parDegree))
	if err != nil {
		return err
	}
	fmt.Printf("%d-row customer table, no indexes; %d cores, fan-out ×%d (effective ×%d), segment size %d\n",
		report.Rows, report.Cores, report.Degree, report.EffectiveDegree, report.SegmentSize)
	if report.EffectiveDegree <= 1 {
		fmt.Println("note: parallel session degraded to a serial scan (one core or single-segment table); speedups are noise")
	}
	fmt.Printf("%-24s %-10s %-12s %-12s %-12s %s\n", "case", "rows", "serial p50", "par p50", "par p99", "speedup")
	for _, c := range report.Cases {
		fmt.Printf("%-24s %-10d %-12s %-12s %-12s %.2fx\n",
			c.Name, c.Rows,
			time.Duration(c.Serial.P50*1000).String(),
			time.Duration(c.Parallel.P50*1000).String(),
			time.Duration(c.Parallel.P99*1000).String(),
			c.Speedup)
	}
	if *parOut != "" {
		raw, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*parOut, append(raw, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", *parOut)
	}
	fmt.Println("shape: fan-out wins when segments outnumber workers and cores are real; on one core the merge overhead shows")
	return nil
}

// runSRV starts an in-process qqld over a generated customer table and
// drives it with concurrent client connections, reporting throughput,
// latency percentiles and plan-cache effectiveness — the serving-layer
// counterpart of X1's in-process quality filtering.
func runSRV() error {
	cat := storage.NewCatalog()
	rel := workload.Customers(workload.CustomerConfig{N: 20000, Seed: 11})
	tbl, err := cat.Create(rel.Schema, false)
	if err != nil {
		return err
	}
	if err := tbl.Load(rel); err != nil {
		return err
	}
	if err := tbl.CreateIndex(storage.IndexTarget{Attr: "employees"}, storage.IndexBTree); err != nil {
		return err
	}
	srv := server.New(cat, server.Config{Addr: "127.0.0.1:0", MaxConns: 128, Now: workload.Epoch})
	if err := srv.Listen(); err != nil {
		return err
	}
	go srv.Serve()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			fmt.Fprintf(os.Stderr, "benchrunner: shutdown: %v\n", err)
		}
	}()

	fmt.Printf("20000-row customer table behind qqld at %s\n", srv.Addr())
	fmt.Printf("%-8s %-10s %-10s %-10s %-10s %s\n", "clients", "q/s", "p50", "p95", "p99", "cache hit%")
	prev := srv.Cache().Stats()
	for _, nClients := range []int{1, 8, 32} {
		res, err := workload.RunServerBench(workload.ServerBenchConfig{
			Addr:       srv.Addr().String(),
			Clients:    nClients,
			Requests:   200,
			Statements: workload.ServerStatements(),
		})
		if err != nil {
			return err
		}
		if res.Errors > 0 {
			return fmt.Errorf("server bench: %d statement errors", res.Errors)
		}
		// Per-round cache effectiveness across both tiers: delta against the
		// previous round (hot SELECTs land in the bound-plan tier, DML in
		// the AST tier).
		cs := srv.Cache().Stats()
		hits := (cs.Hits - prev.Hits) + (cs.PlanHits - prev.PlanHits)
		total := hits + (cs.Misses - prev.Misses) + (cs.PlanMisses - prev.PlanMisses)
		prev = cs
		rate := 0.0
		if total > 0 {
			rate = float64(hits) / float64(total)
		}
		fmt.Printf("%-8d %-10.0f %-10v %-10v %-10v %.1f%%\n",
			nClients, res.QPS, res.P50.Round(time.Microsecond),
			res.P95.Round(time.Microsecond), res.P99.Round(time.Microsecond),
			100*rate)
	}
	st := srv.Stats()
	fmt.Printf("server: %d conns accepted, %d queries, %d errors, mean latency %v\n",
		st.Accepted, st.Queries, st.Errors,
		(st.TotalLatency / time.Duration(max(st.Queries, 1))).Round(time.Microsecond))
	fmt.Println("shape: shared plan cache takes re-parsing off the hot path; throughput scales with connections until the catalog's write lock saturates")
	return nil
}

func runT1() error {
	fmt.Println("paper: 2 rows (Fruit Co / Nut Co), no quality information")
	fmt.Print(relation.Format(workload.PaperTable1(), false))
	return nil
}

func runT2() error {
	fmt.Println("paper: same rows, each cell tagged (creation time, source)")
	fmt.Print(relation.Format(workload.PaperTable2(), true))
	return nil
}

func runF1() error {
	fmt.Print(catalog.Taxonomy())
	return nil
}

func runF2() error {
	p, err := core.TradingPipeline()
	if err != nil {
		return err
	}
	res, err := p.Run()
	if err != nil {
		return err
	}
	fmt.Println("step 1 (application view):  ", p.App.Name, "-",
		len(p.App.Entities), "entities,", len(p.App.Relationships), "relationships")
	fmt.Println("step 2 (parameter view):    ", len(res.ParameterView.Annotations), "quality parameters")
	fmt.Println("step 3 (quality view):      ", len(res.QualityView.Indicators), "quality indicators")
	fmt.Println("step 4 (quality schema):    ", len(res.QualitySchema.Indicators), "indicators after integration,",
		len(res.QualitySchema.Decisions), "decisions,", len(res.QualitySchema.Conflicts), "conflicts")
	fmt.Println("compiled storage schemas:   ", len(res.Schemas))
	return nil
}

func runF3() error {
	fmt.Print(core.MustTradingResult().ParameterView.App.Render())
	return nil
}

func runF4() error {
	fmt.Print(core.MustTradingResult().ParameterView.Render())
	return nil
}

func runF5() error {
	fmt.Print(core.MustTradingResult().QualityView.Render())
	return nil
}

func runA() error {
	cands := catalog.Candidates()
	fmt.Printf("%d candidate quality attributes (%d parameters, %d indicators)\n",
		len(cands), len(catalog.Parameters()), len(catalog.Indicators()))
	group := ""
	for _, c := range cands {
		if c.Group != group {
			group = c.Group
			fmt.Printf("[%s]\n", group)
		}
		fmt.Printf("  %-22s %s\n", c.Name, c.Class)
	}
	return nil
}

func runX1() error {
	cat := storage.NewCatalog()
	sess := qql.NewSession(cat)
	sess.SetNow(workload.Epoch)
	rel := workload.Customers(workload.CustomerConfig{N: 10000, Seed: 1})
	tbl, err := cat.Create(rel.Schema, false)
	if err != nil {
		return err
	}
	if err := tbl.Load(rel); err != nil {
		return err
	}
	for _, q := range []string{
		`SELECT COUNT(*) AS n FROM customer`,
		`SELECT COUNT(*) AS n FROM customer WITH QUALITY employees@source != 'estimate'`,
		`SELECT COUNT(*) AS n FROM customer WITH QUALITY AGE(employees@creation_time) <= d'720h'`,
		`SELECT COUNT(*) AS n FROM customer WITH QUALITY employees@source = 'Nexis' AND AGE(employees@creation_time) <= d'720h'`,
	} {
		out, err := sess.Query(q)
		if err != nil {
			return err
		}
		fmt.Printf("%6d rows  <- %s\n", out.Tuples[0].Cells[0].V.AsInt(), q)
	}
	fmt.Println("shape: each added quality requirement strictly narrows the result (paper §1.2)")
	return nil
}

func runX2() error {
	res := core.MustTradingResult()
	for _, d := range res.QualitySchema.Decisions {
		if d.Kind == "subsume" {
			fmt.Println("integration decision:", d.Text)
		}
	}
	fmt.Println("paper: 'the design team may choose creation time ... because age can be")
	fmt.Println("computed given current time and creation time' — reproduced")
	return nil
}

func runX3() error {
	rel := workload.Addresses(workload.AddressConfig{N: 20000, Seed: 42, FreshFraction: 0.4, VerifiedFraction: 0.35})
	ev := &quality.Evaluator{Registry: derive.StandardRegistry(), Now: workload.Epoch}
	fund := &quality.Profile{Name: "fund_raising", Constraints: []quality.IndicatorConstraint{
		{Attr: "address", Indicator: "source", Op: quality.OpEq, Bound: value.Str("registry")},
		{Attr: "address", Indicator: "creation_time", Op: quality.OpLe,
			Bound: value.Duration(90 * 24 * time.Hour), AgeOf: true},
	}}
	classes := []quality.GradeClass{
		{Name: "A", Profile: fund},
		{Name: "B", Profile: &quality.Profile{Constraints: []quality.IndicatorConstraint{
			{Attr: "address", Indicator: "creation_time", Op: quality.OpLe,
				Bound: value.Duration(365 * 24 * time.Hour), AgeOf: true}}}},
		{Name: "C", Profile: &quality.Profile{}},
	}
	_, counts, err := ev.Classify(rel, classes)
	if err != nil {
		return err
	}
	keys := make([]string, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("  class %-2s %6d addresses (%.1f%%)\n", k, counts[k], 100*float64(counts[k])/float64(rel.Len()))
	}
	fmt.Println("shape: mass mailing (C) sees everything, fund raising (A) a small verified-and-fresh subset")
	return nil
}

func runX4() error {
	trail := audit.NewTrail()
	quote := audit.CellRef{Table: "company_stock", Key: "IBM", Attr: "share_price"}
	pos := audit.CellRef{Table: "portfolio", Key: "acct_1001", Attr: "position_value"}
	stmt := audit.CellRef{Table: "statements", Key: "acct_1001", Attr: "total"}
	now := workload.Epoch
	trail.Record(audit.Step{Kind: audit.StepCollect, Actor: "feed", At: now.Add(-30 * time.Hour), Outputs: []audit.CellRef{quote}})
	trail.Record(audit.Step{Kind: audit.StepEnter, Actor: "teller_2", At: now.Add(-29 * time.Hour), Outputs: []audit.CellRef{quote}, Note: "erred entry"})
	trail.Record(audit.Step{Kind: audit.StepTransform, Actor: "eod", At: now.Add(-20 * time.Hour), Inputs: []audit.CellRef{quote}, Outputs: []audit.CellRef{pos}})
	trail.Record(audit.Step{Kind: audit.StepTransform, Actor: "stmt", At: now.Add(-10 * time.Hour), Inputs: []audit.CellRef{pos}, Outputs: []audit.CellRef{stmt}})
	fmt.Print(trail.Report(quote))
	return nil
}

func runAB1() error {
	const n = 50000
	fmt.Printf("relation of %d rows, 3 columns; tags: 2 indicators on 2 columns\n", n)
	plain := workload.Customers(workload.CustomerConfig{N: n, Seed: 3, Untagged: 1.0})
	tagged := workload.Customers(workload.CustomerConfig{N: n, Seed: 3, Untagged: 0.0})
	scan := func(rel *relation.Relation) time.Duration {
		start := time.Now()
		count := 0
		for _, t := range rel.Tuples {
			for _, c := range t.Cells {
				if c.Tags.Has("source") {
					count++
				}
			}
		}
		_ = count
		return time.Since(start)
	}
	fmt.Printf("  scan untagged: %v\n", scan(plain))
	fmt.Printf("  scan tagged:   %v\n", scan(tagged))
	fmt.Println("shape: tagging costs memory and a modest scan overhead; queries unaffected unless tags are read")
	return nil
}

func runAB2() error {
	const n = 100000
	rel := workload.Customers(workload.CustomerConfig{N: n, Seed: 5})
	mk := func(withIndex bool) (*qql.Session, error) {
		cat := storage.NewCatalog()
		sess := qql.NewSession(cat)
		sess.SetNow(workload.Epoch)
		tbl, err := cat.Create(rel.Schema, false)
		if err != nil {
			return nil, err
		}
		if err := tbl.Load(rel); err != nil {
			return nil, err
		}
		if withIndex {
			if err := tbl.CreateIndex(storage.IndexTarget{Attr: "employees", Indicator: "creation_time"}, storage.IndexBTree); err != nil {
				return nil, err
			}
		}
		return sess, nil
	}
	indexed, err := mk(true)
	if err != nil {
		return err
	}
	scanned, err := mk(false)
	if err != nil {
		return err
	}
	fmt.Printf("%-12s %-12s %-12s %s\n", "selectivity", "indexed", "tablescan", "rows")
	for _, hours := range []int{24, 168, 720, 4380, 8760} {
		q := fmt.Sprintf(`SELECT COUNT(*) AS n FROM customer WITH QUALITY employees@creation_time >= t'%s'`,
			workload.Epoch.Add(-time.Duration(hours)*time.Hour).Format(time.RFC3339))
		t0 := time.Now()
		out, err := indexed.Query(q)
		if err != nil {
			return err
		}
		dIdx := time.Since(t0)
		t0 = time.Now()
		if _, err := scanned.Query(q); err != nil {
			return err
		}
		dScan := time.Since(t0)
		fmt.Printf("%-12s %-12v %-12v %d\n", fmt.Sprintf("<=%dh", hours), dIdx, dScan, out.Tuples[0].Cells[0].V.AsInt())
	}
	fmt.Println("shape: the indicator index wins at low selectivity; the gap narrows as the range widens")
	return nil
}

func runAB3() error {
	ctx := &algebra.EvalContext{Now: workload.Epoch}
	for _, n := range []int{1000, 5000, 20000} {
		data := workload.Trading(workload.TradingConfig{Clients: 100, Stocks: 16, Trades: n, Seed: 9})
		t0 := time.Now()
		j, err := algebra.NewHashJoin(
			algebra.NewRelationScan(data.Trades), algebra.NewRelationScan(data.Stocks),
			&algebra.ColRef{Name: "company_stock_ticker_symbol"}, &algebra.ColRef{Name: "ticker_symbol"},
			nil, ctx)
		if err != nil {
			return err
		}
		out, err := algebra.Collect(j)
		if err != nil {
			return err
		}
		elapsed := time.Since(t0)
		// Count rows whose joined price cell still carries its polygen source.
		withSrc := 0
		col := out.Schema.ColIndex("share_price")
		for _, t := range out.Tuples {
			if len(t.Cells[col].Sources) > 0 {
				withSrc++
			}
		}
		fmt.Printf("  join %6d trades x 16 stocks: %7d rows in %8v; %d carry polygen sources\n",
			n, out.Len(), elapsed, withSrc)
	}
	fmt.Println("shape: propagation is O(rows); source sets ride along without blowup on joins")
	return nil
}

func runAB4() error {
	app := core.ScalableModel(12)
	for _, nViews := range []int{1, 4, 16} {
		for _, nInds := range []int{4, 16} {
			views, err := core.ScalableViews(app, nViews, nInds)
			if err != nil {
				return err
			}
			ig := core.Integrator{Registry: derive.StandardRegistry()}
			t0 := time.Now()
			qs, err := ig.Integrate(views...)
			if err != nil {
				return err
			}
			fmt.Printf("  %2d views x %2d indicators: %4d integrated indicators in %v\n",
				nViews, nInds, len(qs.Indicators), time.Since(t0))
		}
	}
	fmt.Println("shape: integration is near-linear in total annotations; unions dominate")
	return nil
}

func runAB5() error {
	chart, err := inspect.NewPChart(0.01, 500)
	if err != nil {
		return err
	}
	ins := &inspect.Inspector{Rules: []inspect.Rule{
		inspect.NotNull{Attr: "address"}, inspect.NotNull{Attr: "employees"}}}
	base := workload.Customers(workload.CustomerConfig{N: 500, Seed: 100})
	detectedAt := -1
	for day := 0; day < 20; day++ {
		rate := 0.005
		if day >= 12 {
			rate = 0.05 // sustained process shift
		}
		batch, _ := workload.InjectErrors(base, workload.ErrorConfig{Seed: int64(day), NullRate: rate})
		res := ins.InspectRelation(batch)
		p, err := chart.AddSample(res.Defective)
		if err != nil {
			return err
		}
		if p.OutOfControl && detectedAt < 0 {
			detectedAt = day
		}
	}
	fmt.Printf("  shift injected at day 12; chart signalled at day %d (%d out-of-control points total)\n",
		detectedAt, len(chart.OutOfControl()))
	if detectedAt < 12 {
		return fmt.Errorf("false alarm before the shift")
	}
	return nil
}
