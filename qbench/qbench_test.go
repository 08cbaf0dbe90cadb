package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/qql"
	"repro/internal/server/client"
)

func TestExpectedCheckpoints(t *testing.T) {
	for _, c := range []struct {
		records int
		want    int
		ok      bool
	}{
		{77503, 1, true},                       // the set-up of every workload
		{77503 + updatesPerSecond*60, 1, true}, // point_mixed at 60 s
		{100000, 0, false},                     // exactly on a trigger
		{52000, 0, false},                      // just past one
		{47000, 0, false},                      // just before one
	} {
		got, err := expectedCheckpoints(c.records)
		if (err == nil) != c.ok || got != c.want {
			t.Errorf("expectedCheckpoints(%d) = %d, %v; want %d, ok %v", c.records, got, err, c.want, c.ok)
		}
	}
}

func TestGenerationIsSeeded(t *testing.T) {
	a := genCustomers(rng(7, 1), 0, 50)
	b := genCustomers(rng(7, 1), 0, 50)
	c := genCustomers(rng(8, 1), 0, 50)
	if insertSQL(a[9]) != insertSQL(b[9]) {
		t.Fatalf("same seed, different rows:\n%s\n%s", insertSQL(a[9]), insertSQL(b[9]))
	}
	if insertSQL(a[9]) == insertSQL(c[9]) {
		t.Fatalf("different seeds, same row %s", insertSQL(a[9]))
	}
	for _, x := range a {
		if age := epoch.Sub(x.EmpAt); age%time.Hour != 30*time.Minute {
			t.Fatalf("age %v lies on an hour: AGE() bounds would be ambiguous", age)
		}
	}
}

// tinyNode boots a default node over a temp dir holding n generated rows
// and the emp_dim table, loaded over the wire the way set-up loads them.
func tinyNode(t *testing.T, n int) (*node, *table) {
	t.Helper()
	nd, err := boot(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := nd.stop(); err != nil {
			t.Error(err)
		}
	})
	rows := genCustomers(rng(3, 1), 0, n)
	cl, err := client.Dial(nd.addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	for _, q := range ddl {
		if _, err := cl.Exec(q); err != nil {
			t.Fatal(err)
		}
	}
	stmts := dimSQL()
	for _, c := range rows {
		stmts = append(stmts, insertSQL(c))
	}
	frames, err := ingest(nd.addr(), stmts, ingestConns, 7)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range frames {
		if f.bad != 0 {
			t.Fatalf("frame with %d unacknowledged statements", f.bad)
		}
	}
	return nd, newTable(rows)
}

// TestAnswersMatchModel runs every quality_scan shape and point read over
// the wire against a tiny table, and checks that the model catches a
// wrong answer.
func TestAnswersMatchModel(t *testing.T) {
	nd, model := tinyNode(t, 300)
	cl, err := client.Dial(nd.addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	for _, sh := range scanShapes {
		resp := query(cl, sh.SQL)
		if resp.err != nil {
			t.Fatalf("%s: %v", sh.Name, resp.err)
		}
		if got, want := rowStrings(resp.rows), model.expect(sh.Name); !equal(got, want) {
			t.Errorf("%s: got %v, want %v", sh.Name, got, want)
		}
	}
	name := model.order[17]
	if resp := query(cl, pointSQL(name)); resp.err != nil || len(resp.rows) != 1 || resp.rows[0][0] != strLit(name) {
		t.Fatalf("point read %s: %v %v", name, resp.rows, resp.err)
	}

	// An update the server never saw must make the per-source check fail.
	c := model.rows[name]
	src := "sales"
	if c.EmpSrc == src {
		src = "Nexis"
	}
	model.apply(update{Key: name, Emp: c.Emp, Src: src, At: c.EmpAt})
	if got, want := rowStrings(query(cl, sourceGroupsSQL).rows), model.expect("source_groups"); equal(got, want) {
		t.Fatalf("per-source check missed a wrong answer: %v", got)
	}
	// Sending it makes the answers agree again.
	if msg, err := cl.Exec(update{Key: name, Emp: c.Emp, Src: src, At: c.EmpAt}.SQL()); err != nil || msg != "updated 1 row(s) in customer" {
		t.Fatalf("update: %q %v", msg, err)
	}
	if got, want := rowStrings(query(cl, sourceGroupsSQL).rows), model.expect("source_groups"); !equal(got, want) {
		t.Fatalf("after the update: got %v, want %v", got, want)
	}
}

// TestCountsSurviveReopen checks the restart tail's check on a tiny data
// dir: after a clean close, the reopened node answers the model's counts.
func TestCountsSurviveReopen(t *testing.T) {
	dir := t.TempDir()
	nd, err := boot(dir)
	if err != nil {
		t.Fatal(err)
	}
	r := &run{node: nd, model: newTable(nil), counts: map[string]int64{}}
	if err := r.exec(ddl); err != nil {
		t.Fatal(err)
	}
	rows := genCustomers(rng(5, 1), 0, 40)
	stmts := make([]string, len(rows))
	for i, c := range rows {
		stmts[i] = insertSQL(c)
	}
	frames, err := ingest(nd.addr(), stmts, 1, 9)
	if err != nil {
		t.Fatal(err)
	}
	r.checkFrames(frames, len(rows))
	r.model.add(rows)
	if err := nd.stop(); err != nil {
		t.Fatal(err)
	}
	if r.node, err = boot(dir); err != nil {
		t.Fatal(err)
	}
	defer r.node.stop()
	if err := r.checkCounts("reopen"); err != nil {
		t.Fatal(err)
	}
	if r.fails.count() != 0 {
		t.Fatalf("reopened node disagrees with the model: %v", r.fails.msgs)
	}
	r.model.add(genCustomers(rng(6, 1), 40, 1)) // a row the server never got
	if err := r.checkCounts("reopen"); err != nil {
		t.Fatal(err)
	}
	if r.fails.count() == 0 {
		t.Fatal("count check missed a missing row")
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "replay", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "qql.exec", Start: 10, End: 60},
		{ID: 3, Parent: 1, Name: "wal.commit", Start: 50, End: 90}, // overlaps qql.exec
		{ID: 4, Parent: 2, Name: "algebra.Scan", Start: 20, End: 30},
	}
	got := map[string]float64{}
	for _, ls := range selfTimes(spans) {
		got[ls.Layer] = ls.Self * 1e6
	}
	want := map[string]float64{"replay": 20, "qql": 40, "wal": 40, "algebra": 10}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("self time of %s = %v ns, want %v", k, got[k], v)
		}
	}
}

func TestOpTree(t *testing.T) {
	ms := time.Millisecond
	steps := []qql.AnalyzeStep{
		{Desc: "Vectorized(batch=1024, compiled)"},
		{Desc: "ParallelScan(customer, ×2)", Instrumented: true, Time: 10 * ms, Rows: 100, Extra: "workers=2 segments=[1 1]"},
		{Desc: "BatchTableScan(emp_dim)", Instrumented: true, Time: 1 * ms, Rows: 5},
		{Desc: "BatchHashJoin(emp_dim: employees = employees)", Instrumented: true, Time: 15 * ms, Rows: 40},
		{Desc: "BatchGroupedAggregate(group by 1 key(s))", Instrumented: true, Time: 18 * ms, Rows: 3},
		{Desc: "Project(band, n)", Instrumented: true, Time: 1 * ms, Rows: 3},
	}
	ops := opTree(steps)
	want := []struct {
		name    string
		self    time.Duration
		workers int
	}{
		{"ParallelScan", 10 * ms, 2},
		{"BatchTableScan", 1 * ms, 0},
		{"BatchHashJoin", 4 * ms, 0},
		{"BatchGroupedAggregate", 3 * ms, 0},
		{"Project", 0, 0}, // billed less than its input: floored
	}
	if len(ops) != len(want) {
		t.Fatalf("%d ops, want %d", len(ops), len(want))
	}
	for i, w := range want {
		if ops[i].name != w.name || ops[i].self != w.self || ops[i].workers != w.workers {
			t.Errorf("op %d = %s self %v workers %d, want %s %v %d", i, ops[i].name, ops[i].self, ops[i].workers, w.name, w.self, w.workers)
		}
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json's end-to-end list in step with
// what the benchmark prints.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.EndToEnd) != len(e2eUnits) {
		t.Errorf("BENCHMARK.json lists %d end-to-end metrics, the benchmark prints %d", len(b.EndToEnd), len(e2eUnits))
	}
	for _, m := range b.EndToEnd {
		if e2eUnits[m.Name] != m.Unit {
			t.Errorf("end-to-end %s: unit %q in BENCHMARK.json, %q printed", m.Name, m.Unit, e2eUnits[m.Name])
		}
	}
	for _, w := range b.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("workload %s has no implementation", w.Name)
		}
	}
	for _, m := range b.PerLayer {
		if layerUnit(m.Name) != m.Unit {
			t.Errorf("per-layer %s: unit %q in BENCHMARK.json, %q printed", m.Name, m.Unit, layerUnit(m.Name))
		}
		if !strings.Contains(m.Name, ".") {
			t.Errorf("per-layer %s names no layer", m.Name)
		}
	}
}
