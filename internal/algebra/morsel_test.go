package algebra

import (
	"fmt"
	"runtime"
	"slices"
	"testing"
	"time"

	"repro/internal/relation"
	"repro/internal/storage"
	"repro/internal/value"
)

// parallelPreds are fused predicates covering both evaluation forms: column
// kernels (plain and indicator comparisons) and the scalar fallback over
// worker scratch rows (an arithmetic comparison, an IN list).
func parallelPreds() map[string]func() Expr {
	return map[string]func() Expr{
		"none": func() Expr { return nil },
		"kernel": func() Expr {
			return &Logic{Op: OpAnd, L: &Cmp{Op: OpGe, L: &ColRef{Name: "qty"}, R: &Const{V: value.Int(300)}},
				R: &Cmp{Op: OpNe, L: &ColRef{Name: "grp"}, R: &Const{V: value.Str("g2")}}}
		},
		"indicator": func() Expr {
			return &Cmp{Op: OpEq, L: &IndRef{Col: "grp", Indicator: "source"}, R: &Const{V: value.Str("a")}}
		},
		"scalar": func() Expr {
			return &Cmp{Op: OpLt, L: &Arith{Op: OpMul, L: &ColRef{Name: "qty"}, R: &Const{V: value.Int(2)}}, R: &Const{V: value.Int(900)}}
		},
		"prunes": func() Expr {
			return &Cmp{Op: OpGe, L: &ColRef{Name: "id"}, R: &Const{V: value.Int(2*storage.SegmentSize + 17)}}
		},
	}
}

// serialFiltered is the reference pipeline: serial column scan, then a
// batch select.
func serialFiltered(t *testing.T, tbl *storage.Table, size int, cols []int, prunes []SegPrune, pred Expr, compiled bool) BatchIterator {
	t.Helper()
	var bit BatchIterator = NewBatchColScan(tbl, size, cols, prunes)
	if pred != nil {
		var err error
		if bit, err = NewBatchSelect(bit, pred, ctx(), compiled); err != nil {
			t.Fatal(err)
		}
	}
	return bit
}

// TestParallelBatchScanMatchesColScan: for every predicate form, degree,
// batch size and column subset, the parallel scan delivers exactly the
// rows (cells, tags and sources) of the serial scan → select pipeline,
// including over deleted slots and min/max-pruned segments.
func TestParallelBatchScanMatchesColScan(t *testing.T) {
	tbl := bigTable(t, 3*storage.SegmentSize+211)
	for name, mk := range parallelPreds() {
		for _, proj := range [][]int{{0, 1, 2}, {0}, {1}} {
			for _, compiled := range []bool{true, false} {
				// A scan reads the projected columns plus the predicate's.
				cols := append([]int(nil), proj...)
				var prunes []SegPrune
				if p := mk(); p != nil {
					if err := p.Bind(tbl.Schema()); err != nil {
						t.Fatal(err)
					}
					prunes = PrunableSargs(p)
					for _, c := range ReferencedCols(p) {
						if !slices.Contains(cols, c) {
							cols = append(cols, c)
						}
					}
				}
				// Only the projected columns may be read back.
				project := func(bit BatchIterator, size int) Iterator {
					items := make([]ProjectItem, len(proj))
					for i, c := range proj {
						items[i] = ProjectItem{Expr: &ColRef{Name: tbl.Schema().Attrs[c].Name}}
					}
					pb, err := NewBatchProject(bit, items, ctx(), size, compiled)
					if err != nil {
						t.Fatal(err)
					}
					return NewFromBatch(pb, size)
				}
				for _, size := range batchSizes {
					want := drain(t, project(serialFiltered(t, tbl, size, cols, prunes, mk(), compiled), size))
					for _, degree := range []int{1, 2, 3, 8} {
						ps, err := NewParallelBatchScan(tbl, degree, size, cols, prunes, mk(), ctx(), compiled)
						if err != nil {
							t.Fatal(err)
						}
						got := drain(t, project(ps, size))
						sameRelation(t, want, got, fmt.Sprintf("%s cols %v compiled %v size %d degree %d", name, cols, compiled, size, degree))
					}
				}
			}
		}
	}
}

// settleGoroutines waits until the goroutine count is back to at most
// base, collecting garbage so finalizers run; it fails the test after a
// few seconds.
func settleGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines, want at most %d: workers leaked", runtime.NumGoroutine(), base)
		}
		runtime.GC()
		time.Sleep(5 * time.Millisecond)
	}
}

// TestParallelBatchScanLimitStopsWorkers: a filled LIMIT stops the scan
// and its workers: the goroutine count returns to baseline.
func TestParallelBatchScanLimitStopsWorkers(t *testing.T) {
	tbl := bigTable(t, 8*storage.SegmentSize)
	base := runtime.NumGoroutine()
	ps, err := NewParallelBatchScan(tbl, 4, 16, []int{0, 1, 2}, nil, nil, ctx(), true)
	if err != nil {
		t.Fatal(err)
	}
	out := drain(t, NewFromBatch(NewBatchLimit(ps, 5, 0), 16))
	if out.Len() != 5 {
		t.Fatalf("limit 5 = %d rows", out.Len())
	}
	settleGoroutines(t, base)
}

// TestParallelBatchScanErrorOnce: a predicate error in a later segment
// surfaces once, after exactly the batches the serial pipeline delivers
// before failing, with the same message; the stream then ends cleanly and
// no worker is left blocked.
func TestParallelBatchScanErrorOnce(t *testing.T) {
	tbl := bigTable(t, 5*storage.SegmentSize)
	// LIKE over an int errors, but only once the id guard lets it run.
	bad := func() Expr {
		return &Logic{Op: OpAnd,
			L: &Cmp{Op: OpGe, L: &ColRef{Name: "id"}, R: &Const{V: value.Int(2*storage.SegmentSize + 700)}},
			R: &Like{E: &ColRef{Name: "qty"}, Pattern: "x%"}}
	}
	collect := func(bit BatchIterator) (rows int, err error) {
		b := NewBatch(64)
		for {
			ok, err := bit.NextBatch(b)
			if err != nil || !ok {
				return rows, err
			}
			rows += b.Len()
		}
	}
	wantRows, wantErr := collect(serialFiltered(t, tbl, 64, []int{0, 2}, nil, bad(), true))
	if wantErr == nil {
		t.Fatal("serial pipeline did not fail")
	}
	base := runtime.NumGoroutine()
	for _, degree := range []int{2, 3, 8} {
		ps, err := NewParallelBatchScan(tbl, degree, 64, []int{0, 2}, nil, bad(), ctx(), true)
		if err != nil {
			t.Fatal(err)
		}
		rows, err := collect(ps)
		if err == nil || err.Error() != wantErr.Error() || rows != wantRows {
			t.Fatalf("degree %d: %d rows then %v; serial gives %d rows then %v", degree, rows, err, wantRows, wantErr)
		}
		if ok, err := ps.NextBatch(NewBatch(64)); ok || err != nil {
			t.Fatalf("degree %d: NextBatch after the error = %v, %v", degree, ok, err)
		}
		settleGoroutines(t, base)
	}
}

// TestParallelBatchScanAbandonedReleased: a scan dropped mid-stream without
// Stop has its workers released by the finalizer.
func TestParallelBatchScanAbandonedReleased(t *testing.T) {
	tbl := bigTable(t, 12*storage.SegmentSize)
	base := runtime.NumGoroutine()
	func() {
		ps, err := NewParallelBatchScan(tbl, 2, 32, []int{0}, nil, nil, ctx(), true)
		if err != nil {
			t.Fatal(err)
		}
		if ok, err := ps.NextBatch(NewBatch(32)); !ok || err != nil {
			t.Fatalf("NextBatch = %v, %v", ok, err)
		}
	}()
	settleGoroutines(t, base)
}

// aggRows runs a grouped aggregate over bit and renders its rows.
func aggRows(t *testing.T, bit BatchIterator, groupBy []Expr, aggs []AggSpec, size int) (string, error) {
	t.Helper()
	it, err := NewBatchGroupedAggregate(bit, groupBy, aggs, ctx(), size, true)
	if err != nil {
		return "", err
	}
	rel, err := Collect(it)
	if err != nil {
		t.Fatal(err)
	}
	return relation.Format(rel, true), nil
}

// TestParallelAggregateMatchesSerial: aggregates folded per segment in the
// workers and merged in segment order produce the serial fold's bytes —
// group order, first-seen key cells, provenance, MIN/MAX ties — and a
// plan with AVG takes the serial fold above the parallel scan.
func TestParallelAggregateMatchesSerial(t *testing.T) {
	tbl := bigTable(t, 4*storage.SegmentSize+97)
	cases := []struct {
		name    string
		groupBy func() []Expr
		aggs    func() []AggSpec
	}{
		{"global", func() []Expr { return nil }, func() []AggSpec {
			return []AggSpec{{Fn: AggCount}, {Fn: AggSum, Arg: &ColRef{Name: "qty"}}, {Fn: AggMin, Arg: &ColRef{Name: "grp"}}}
		}},
		{"count only", func() []Expr { return nil }, func() []AggSpec { return []AggSpec{{Fn: AggCount}} }},
		{"by column", func() []Expr { return []Expr{&ColRef{Name: "grp"}} }, func() []AggSpec {
			return []AggSpec{{Fn: AggCount, Arg: &ColRef{Name: "qty"}}, {Fn: AggMax, Arg: &ColRef{Name: "qty"}}, {Fn: AggSum, Arg: &ColRef{Name: "id"}}}
		}},
		{"by indicator", func() []Expr { return []Expr{&IndRef{Col: "grp", Indicator: "source"}} }, func() []AggSpec {
			return []AggSpec{{Fn: AggCount}, {Fn: AggMin, Arg: &ColRef{Name: "grp"}}}
		}},
		{"avg stays serial", func() []Expr { return []Expr{&ColRef{Name: "grp"}} }, func() []AggSpec {
			return []AggSpec{{Fn: AggAvg, Arg: &ColRef{Name: "qty"}}, {Fn: AggSum, Arg: &Arith{Op: OpMul, L: &ColRef{Name: "qty"}, R: &Const{V: value.Int(3)}}, As: "s3"}}
		}},
	}
	for _, c := range cases {
		for _, pred := range []string{"none", "kernel", "indicator"} {
			mk := parallelPreds()[pred]
			want, err := aggRows(t, serialFiltered(t, tbl, 64, []int{0, 1, 2}, nil, mk(), true), c.groupBy(), c.aggs(), 64)
			if err != nil {
				t.Fatal(err)
			}
			for _, degree := range []int{1, 2, 3, 8} {
				ps, err := NewParallelBatchScan(tbl, degree, 64, []int{0, 1, 2}, nil, mk(), ctx(), true)
				if err != nil {
					t.Fatal(err)
				}
				got, err := aggRows(t, ps, c.groupBy(), c.aggs(), 64)
				if err != nil {
					t.Fatal(err)
				}
				if got != want {
					t.Fatalf("%s, %s predicate, degree %d: parallel aggregate differs\nserial:\n%s\nparallel:\n%s", c.name, pred, degree, want, got)
				}
			}
		}
	}
}

// TestParallelAggregateErrorOrder: with a predicate error and a fold error
// in different segments, the fused pipeline reports the one the serial
// pipeline meets first, and leaves no worker behind.
func TestParallelAggregateErrorOrder(t *testing.T) {
	tbl := bigTable(t, 5*storage.SegmentSize)
	guard := func(from int) Expr {
		return &Cmp{Op: OpGe, L: &ColRef{Name: "id"}, R: &Const{V: value.Int(int64(from))}}
	}
	// The predicate fails (LIKE over an int) from id predFrom on; the
	// group key divides by zero at id foldAt.
	pred := func(predFrom int) Expr {
		return &Logic{Op: OpOr, L: &Not{E: guard(predFrom)}, R: &Like{E: &ColRef{Name: "qty"}, Pattern: "x%"}}
	}
	key := func(foldAt int) []Expr {
		return []Expr{&Arith{Op: OpDiv, L: &ColRef{Name: "qty"}, R: &Arith{Op: OpSub, L: &ColRef{Name: "id"}, R: &Const{V: value.Int(int64(foldAt))}}}}
	}
	aggs := func() []AggSpec { return []AggSpec{{Fn: AggCount}} }
	base := runtime.NumGoroutine()
	for _, c := range []struct{ predFrom, foldAt int }{
		{3*storage.SegmentSize + 5, storage.SegmentSize + 3}, // fold fails first
		{storage.SegmentSize + 9, 3*storage.SegmentSize + 1}, // predicate fails first
		{storage.SegmentSize + 9, storage.SegmentSize + 2},   // same window: the predicate runs first
	} {
		_, wantErr := aggRows(t, serialFiltered(t, tbl, 64, []int{0, 2}, nil, pred(c.predFrom), true), key(c.foldAt), aggs(), 64)
		if wantErr == nil {
			t.Fatalf("%+v: serial aggregate did not fail", c)
		}
		for _, degree := range []int{2, 3, 8} {
			ps, err := NewParallelBatchScan(tbl, degree, 64, []int{0, 2}, nil, pred(c.predFrom), ctx(), true)
			if err != nil {
				t.Fatal(err)
			}
			_, err = aggRows(t, ps, key(c.foldAt), aggs(), 64)
			if err == nil || err.Error() != wantErr.Error() {
				t.Fatalf("%+v degree %d: error %v, serial gives %v", c, degree, err, wantErr)
			}
			settleGoroutines(t, base)
		}
	}
}

// TestPartialMergeable pins which aggregates fold in the workers: a
// float-valued SUM or any AVG would change bytes under a partial merge.
func TestPartialMergeable(t *testing.T) {
	tbl := bigTable(t, 10)
	for _, c := range []struct {
		aggs []AggSpec
		want bool
	}{
		{[]AggSpec{{Fn: AggCount}, {Fn: AggMin, Arg: &ColRef{Name: "grp"}}, {Fn: AggMax, Arg: &ColRef{Name: "qty"}}}, true},
		{[]AggSpec{{Fn: AggSum, Arg: &ColRef{Name: "qty"}}}, true},
		{[]AggSpec{{Fn: AggSum, Arg: &Arith{Op: OpAdd, L: &ColRef{Name: "qty"}, R: &Const{V: value.Int(1)}}, As: "s1"}}, false},
		{[]AggSpec{{Fn: AggSum, Arg: &ColRef{Name: "grp"}}}, false},
		{[]AggSpec{{Fn: AggCount}, {Fn: AggAvg, Arg: &ColRef{Name: "qty"}}}, false},
	} {
		a, err := bindBatchAgg(tbl.Schema(), nil, c.aggs, ctx(), true)
		if err != nil {
			t.Fatal(err)
		}
		if got := a.partialMergeable(); got != c.want {
			t.Errorf("%v: partialMergeable = %v, want %v", c.aggs, got, c.want)
		}
	}
}
