package qql

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/relation"
	"repro/internal/storage"
	"repro/internal/tag"
	"repro/internal/value"
)

// morselCatalog builds a four-segment table shaped to stress the parallel
// columnar scan: deleted rows (dead slots, so segment selections are
// non-nil), segments whose tag and source runs are absent (only segments
// 0 and 2 carry tags, only 0 and 3 carry sources), a monotonic column
// whose min/max statistics let a predicate prune whole segments, a float
// column of ±0 ties, and a float column whose sum depends on the order of
// addition. dim is the join's build side.
func morselCatalog(t *testing.T) *storage.Catalog {
	t.Helper()
	const n = 3*storage.SegmentSize + 301
	cat := storage.NewCatalog()
	s := NewSession(cat)
	s.MustExec(`CREATE TABLE mx (id int REQUIRED, grp string QUALITY (source string), qty int, seq int, z float, score float) KEY (id)`)
	tbl, _ := cat.Get("mx")
	for i := 0; i < n; i++ {
		seg := i / storage.SegmentSize
		grp := relation.Cell{V: value.Str(fmt.Sprintf("g%d", i%5))}
		if (seg == 0 || seg == 2) && i%3 == 0 {
			grp.Tags = tag.NewSet(tag.Tag{Indicator: "source", Value: value.Str([]string{"a", "b"}[i%2])})
			if i%9 == 0 {
				grp = grp.WithMetaTag("source", "credibility", value.Str([]string{"high", "low"}[i%2]))
			}
		}
		if (seg == 0 || seg == 3) && i%4 == 0 {
			grp.Sources = tag.NewSources([]string{"nexis", "wsj"}[i%8/4])
		}
		z := 1.0
		switch i % 7 {
		case 0:
			z = 0
		case 3:
			z = math.Copysign(0, -1)
		}
		_, err := tbl.Insert(relation.Tuple{Cells: []relation.Cell{
			{V: value.Int(int64(i))},
			grp,
			{V: value.Int(int64((i * 37) % 1000))},
			{V: value.Int(int64(i))},
			{V: value.Float(z)},
			{V: value.Float(float64(i%10)/10 + float64(i%7)/1000)},
		}})
		if err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i += 11 {
		if err := tbl.Delete(storage.RowID(i)); err != nil {
			t.Fatal(err)
		}
	}
	s.MustExec(`CREATE TABLE dim (grp string REQUIRED, label string QUALITY (source string), boost int) KEY (grp)`)
	for i := 0; i < 4; i++ {
		s.MustExec(fmt.Sprintf(`INSERT INTO dim VALUES ('g%d', 'label-%d' @ {source: 'ref'}, %d)`, i, i%2, i*200))
	}
	return cat
}

// morselWorkload covers every shape the parallel columnar path takes: the
// ordered merge (kernel, indicator, meta and source predicates, pruning),
// partial aggregates (global, grouped by column and by indicator, MIN/MAX
// over ±0 ties, integer SUM), the serial fold a float SUM or AVG keeps,
// and a join with a residual predicate, a WHERE and a GROUP BY.
func morselWorkload() []string {
	pruneFrom := 2*storage.SegmentSize + 5
	return []string{
		`SELECT id, qty FROM mx WHERE qty >= 250 AND grp != 'g3'`,
		`SELECT id, grp FROM mx WITH QUALITY grp@source = 'a'`,
		`SELECT id, grp FROM mx WITH QUALITY grp@source@credibility = 'high'`,
		`SELECT id, grp FROM mx WHERE SOURCE(grp, 'nexis')`,
		fmt.Sprintf(`SELECT id, seq FROM mx WHERE seq >= %d`, pruneFrom),
		fmt.Sprintf(`SELECT COUNT(*) AS n, MIN(z) AS lo, MAX(z) AS hi FROM mx WHERE seq >= %d`, pruneFrom),
		`SELECT COUNT(*) AS n, MIN(z) AS lo, MAX(z) AS hi, SUM(qty) AS s FROM mx WHERE qty >= 100`,
		`SELECT grp, COUNT(*) AS n, MIN(z) AS lo, MAX(qty) AS hi, SUM(qty) AS s FROM mx GROUP BY grp`,
		`SELECT grp@source AS src, COUNT(*) AS n, MIN(grp) AS g FROM mx GROUP BY grp@source`,
		`SELECT grp, SUM(score) AS s, AVG(score) AS a FROM mx GROUP BY grp`,
		`SELECT SUM(score) AS s, COUNT(score) AS c FROM mx WHERE qty < 900`,
		`SELECT SUM(qty) AS s, MAX(grp) AS g FROM mx WITH QUALITY grp@source != 'b'`,
		`SELECT d.label, COUNT(*) AS n, MIN(m.z) AS lo, SUM(m.qty) AS s FROM mx m JOIN dim d ON m.grp = d.grp AND m.qty > d.boost WHERE m.qty < 950 GROUP BY d.label`,
		`SELECT m.id, d.label FROM mx m JOIN dim d ON m.grp = d.grp AND m.qty > d.boost`,
		`SELECT COUNT(*) AS n FROM mx`,
		`SELECT id, z FROM mx WHERE z <= 0 ORDER BY id DESC LIMIT 50`,
	}
}

// TestMorselMatchesSerialProperty: every workload query returns the same
// bytes (values, tags, sources) at degree 1, 2, 3 and 8, vectorized or
// not, compiled or not, and at two batch sizes, as the serial scalar plan.
func TestMorselMatchesSerialProperty(t *testing.T) {
	cat := morselCatalog(t)
	ref := NewSession(cat)
	ref.SetVectorized(false)
	ref.SetParallelism(1)
	s := NewSession(cat)
	for _, q := range morselWorkload() {
		want, err := ref.Query(q)
		if err != nil {
			t.Fatalf("reference %q: %v", q, err)
		}
		wf := relation.Format(want, true)
		for _, degree := range []int{1, 2, 3, 8} {
			for _, vec := range []bool{true, false} {
				for _, compiled := range []bool{true, false} {
					for _, bs := range []int{7, 1024} {
						s.SetParallelism(degree)
						s.SetVectorized(vec)
						s.SetCompiledExprs(compiled)
						s.SetBatchSize(bs)
						got, err := s.Query(q)
						if err != nil {
							t.Fatalf("%q (degree %d, vectorized %v, compiled %v, batch %d): %v", q, degree, vec, compiled, bs, err)
						}
						if gf := relation.Format(got, true); gf != wf {
							t.Fatalf("%q (degree %d, vectorized %v, compiled %v, batch %d) differs from the serial plan\nserial:\n%s\ngot:\n%s",
								q, degree, vec, compiled, bs, wf, gf)
						}
					}
				}
			}
		}
	}
}

// TestMorselPlanShapes pins where the parallel columnar scan applies on a
// default (vectorized, compiled) session: fused predicates, the join's
// probe side, and never a bare COUNT(*), which has no per-segment work.
func TestMorselPlanShapes(t *testing.T) {
	s := NewSession(morselCatalog(t))
	s.SetParallelism(3)
	for _, c := range []struct{ q, want string }{
		{`SELECT id FROM mx WITH QUALITY grp@source = 'a'`, "ParallelScan(mx, ×3: (grp@source = 'a'))"},
		{`SELECT grp, COUNT(*) AS n FROM mx GROUP BY grp`, "ParallelScan(mx, ×3)"},
		{`SELECT d.label, COUNT(*) AS n FROM mx m JOIN dim d ON m.grp = d.grp GROUP BY d.label`, "ParallelScan(mx, ×3)"},
		{`SELECT COUNT(*) AS n FROM mx`, "BatchTableScan(mx)"},
	} {
		res := s.MustExec(`EXPLAIN ` + c.q)
		if !strings.Contains(res[0].Plan, c.want) {
			t.Errorf("%s: plan lacks %q:\n%s", c.q, c.want, res[0].Plan)
		}
		if strings.Contains(res[0].Plan, "Select(") {
			t.Errorf("%s: the fused predicate should leave no Select step:\n%s", c.q, res[0].Plan)
		}
	}
}

// TestMorselAnalyzeActuals: when the aggregate folds inside the workers,
// EXPLAIN ANALYZE still reports each fused operator's exact output: the
// same rows the serial batch plan's operators produce.
func TestMorselAnalyzeActuals(t *testing.T) {
	s := NewSession(morselCatalog(t))
	for _, q := range []string{
		`SELECT grp, COUNT(*) AS n, SUM(qty) AS s FROM mx WITH QUALITY grp@source != 'b' GROUP BY grp`,
		`SELECT d.label, COUNT(*) AS n FROM mx m JOIN dim d ON m.grp = d.grp AND m.qty > d.boost WHERE m.qty < 950 GROUP BY d.label`,
	} {
		rows := map[int]map[string]int64{}
		for _, degree := range []int{1, 3} {
			s.SetParallelism(degree)
			rep, err := s.AnalyzeQuery(q)
			if err != nil {
				t.Fatal(err)
			}
			rows[degree] = map[string]int64{}
			for _, st := range rep.Steps {
				if !st.Instrumented {
					continue
				}
				name := st.Desc[:strings.IndexByte(st.Desc, '(')]
				if name == "BatchTableScan" && strings.Contains(st.Desc, "(mx)") {
					name = "scan"
				}
				if name == "ParallelScan" {
					name = "scan"
					if st.Time <= 0 || !strings.Contains(st.Extra, "workers=3") {
						t.Errorf("%s: parallel scan actuals time=%v extra=%q", q, st.Time, st.Extra)
					}
				}
				rows[degree][name] += st.Rows
			}
		}
		// Serially a single-table filter is its own step; in parallel it is
		// fused into the scan, whose output then equals the filter's.
		if sel, ok := rows[1]["BatchQualitySelect"]; ok {
			rows[1]["scan"] = sel
			delete(rows[1], "BatchQualitySelect")
		}
		for name, want := range rows[1] {
			if got := rows[3][name]; got != want {
				t.Errorf("%s: %s rows = %d at degree 3, %d serially", q, name, got, want)
			}
		}
	}
}
