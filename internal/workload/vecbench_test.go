package workload

import (
	"testing"

	"repro/internal/qql"
)

// TestRunVecBenchSmall is a smoke run of the VEC experiment: all four
// modes agree on every cardinality, each records its plan, speedups are populated, and the scan
// paths report zero clone traffic in both tiers.
func TestRunVecBenchSmall(t *testing.T) {
	cfg := VecBenchConfig{Rows: 3000, Seed: 7, Iters: 3, Warmup: 1}
	cat, err := VecBenchCatalog(cfg)
	if err != nil {
		t.Fatal(err)
	}
	mk := func(vec, compiled bool) *qql.Session {
		s := qql.NewSession(cat)
		s.SetNow(Epoch)
		s.SetParallelism(1)
		s.SetVectorized(vec)
		s.SetCompiledExprs(compiled)
		return s
	}
	dflt := qql.NewSession(cat)
	dflt.SetNow(Epoch)
	report, err := RunVecBench(cfg, VecSessions{Scalar: mk(false, false), Vectorized: mk(true, false),
		Compiled: mk(true, true), Default: dflt, Plan: qqlPlan})
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Cases) != len(VecBenchQueries()) {
		t.Fatalf("report has %d cases, want %d", len(report.Cases), len(VecBenchQueries()))
	}
	for _, c := range report.Cases {
		if c.Scalar.QPS <= 0 || c.Vectorized.QPS <= 0 || c.Compiled.QPS <= 0 || c.Default.QPS <= 0 {
			t.Errorf("%s: zero q/s in a mode: %+v", c.Name, c)
		}
		if c.SpeedupVectorized <= 0 || c.SpeedupCompiled <= 0 || c.SpeedupDefault <= 0 {
			t.Errorf("%s: speedups not populated", c.Name)
		}
		// The zero-clone satellite: no mode clones on the scan paths.
		if c.Scalar.ClonesPerQuery != 0 || c.Vectorized.ClonesPerQuery != 0 || c.Compiled.ClonesPerQuery != 0 || c.Default.ClonesPerQuery != 0 {
			t.Errorf("%s: clone traffic: scalar %d, vectorized %d, compiled %d, default %d",
				c.Name, c.Scalar.ClonesPerQuery, c.Vectorized.ClonesPerQuery, c.Compiled.ClonesPerQuery, c.Default.ClonesPerQuery)
		}
		if c.Scalar.Plan == "" || c.Default.Plan == "" {
			t.Errorf("%s: plans not recorded: %+v", c.Name, c)
		}
	}
	if report.Cases[0].Name != "full_scan" || report.Cases[0].Rows != 1 {
		t.Errorf("full_scan case malformed: %+v", report.Cases[0])
	}
}

// qqlPlan reports the plan a qql session runs for q.
func qqlPlan(sess Querier, q string) (string, error) {
	s := sess.(*qql.Session)
	if _, err := s.Exec("EXPLAIN " + q); err != nil {
		return "", err
	}
	return s.LastExecInfo().PlanShape, nil
}
