package algebra

import (
	"sort"

	"repro/internal/relation"
	"repro/internal/schema"
	"repro/internal/tag"
	"repro/internal/value"
)

// NewBatchGroupedAggregate groups a batch stream by the groupBy
// expressions and computes the aggregates per group — the batch-native
// counterpart of NewAggregate's grouped case, with identical output:
// same schema (aggOutputSchema), same key encoding and group order
// (sorted key literals), same first-seen key cells and provenance
// folding. Plain-column group keys and aggregate arguments read straight
// off the column vectors; computed expressions evaluate over a scratch
// row holding only their referenced columns. The input is drained
// eagerly in the constructor; compiled selects compiled evaluation.
//
// When the input is a pipeline over a parallel batch scan (see
// fuseChain) and every aggregate merges exactly (partialMergeable), the
// fold runs per segment inside the scan's workers and the partials merge
// in segment order, so the result is the same bytes the serial fold
// produces.
func NewBatchGroupedAggregate(in BatchIterator, groupBy []Expr, aggs []AggSpec, ctx *EvalContext, size int, compiled bool) (Iterator, error) {
	a, err := bindBatchAgg(in.Schema(), groupBy, aggs, ctx, compiled)
	if err != nil {
		return nil, err
	}
	if size < 1 {
		size = DefaultBatchSize
	}
	b := getBatch(size)
	defer func() {
		putBatch(b)
		stopIfStopper(in)
	}()
	if fp, ok := fuseChain(in); ok && a.partialMergeable() {
		t, err := fp.fold(a)
		if err != nil {
			return nil, err
		}
		return a.result(t), nil
	}
	t := a.newTable()
	for {
		ok, err := in.NextBatch(b)
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
		if err := a.fold(t, b); err != nil {
			return nil, err
		}
	}
	return a.result(t), nil
}

// batchAgg is a bound batch aggregation: group-key and argument
// evaluators with their referenced columns. It is read-only after
// construction, so parallel workers folding segment partials share one.
type batchAgg struct {
	aggs      []AggSpec
	in        *schema.Schema
	out       *schema.Schema
	ctx       *EvalContext
	keyIdx    []int // bound column of each plain-column key, -1 when computed
	keyEvals  []Compiled
	keyRefs   [][]int
	argRefs   [][]int
	evals     []Compiled
	unionRefs []int
	// countOnly marks a global aggregation of COUNT(*)s alone: each batch
	// contributes its length and no row is read.
	countOnly bool
}

func bindBatchAgg(inS *schema.Schema, groupBy []Expr, aggs []AggSpec, ctx *EvalContext, compiled bool) (*batchAgg, error) {
	for _, g := range groupBy {
		if err := g.Bind(inS); err != nil {
			return nil, err
		}
	}
	if err := bindAggSpecs(inS, aggs); err != nil {
		return nil, err
	}
	outS, err := aggOutputSchema(inS, groupBy, aggs)
	if err != nil {
		return nil, err
	}
	a := &batchAgg{aggs: aggs, in: inS, out: outS, ctx: ctx,
		keyIdx:   make([]int, len(groupBy)),
		keyEvals: make([]Compiled, len(groupBy)),
		keyRefs:  make([][]int, len(groupBy)),
		argRefs:  make([][]int, len(aggs)),
		evals:    make([]Compiled, len(aggs)),
	}
	seen := map[int]bool{}
	addRefs := func(refs []int) {
		for _, r := range refs {
			if !seen[r] {
				seen[r] = true
				a.unionRefs = append(a.unionRefs, r)
			}
		}
	}
	evalOf := func(e Expr) Compiled {
		if compiled {
			return Compile(e)
		}
		return e.Eval
	}
	for i, g := range groupBy {
		a.keyIdx[i] = -1
		if cr, ok := g.(*ColRef); ok {
			a.keyIdx[i] = cr.idx
			continue
		}
		a.keyRefs[i] = ReferencedCols(g)
		addRefs(a.keyRefs[i])
		a.keyEvals[i] = evalOf(g)
	}
	a.countOnly = len(groupBy) == 0
	for i := range aggs {
		if aggs[i].Arg == nil {
			continue
		}
		a.countOnly = false
		a.argRefs[i] = ReferencedCols(aggs[i].Arg)
		addRefs(a.argRefs[i])
		a.evals[i] = evalOf(aggs[i].Arg)
	}
	return a, nil
}

// reads lists the input columns the fold reads (with repeats).
func (a *batchAgg) reads() []int {
	cols := append([]int(nil), a.unionRefs...)
	for _, idx := range a.keyIdx {
		if idx >= 0 {
			cols = append(cols, idx)
		}
	}
	return cols
}

// partialMergeable reports whether folding disjoint runs of the input
// separately and merging the partials in input order reproduces the
// serial fold exactly. COUNT adds; MIN and MAX keep the strictly smaller
// (larger) value, so the earliest of tied values wins either way; an
// integer SUM adds in wrapping int64 arithmetic, which is associative;
// provenance intersects tags and unions sources, both associative; first-
// seen key cells come from the earliest partial. A float SUM or an AVG
// is not: float addition is not associative, so a merged sum could
// differ in the last bits. SUM counts as integer only over a plain
// column declared int, whose every non-null value is an int.
func (a *batchAgg) partialMergeable() bool {
	for _, s := range a.aggs {
		switch s.Fn {
		case AggAvg:
			return false
		case AggSum:
			cr, ok := s.Arg.(*ColRef)
			if !ok || a.in.Attrs[cr.idx].Kind != value.KindInt {
				return false
			}
		case AggCount, AggMin, AggMax:
		}
	}
	return true
}

type aggGroup struct {
	keyCells []relation.Cell
	states   []aggState
}

// aggTable holds one fold's groups in first-seen order, plus the fold's
// key scratch. Group keys are the literals of the key values joined by
// NUL bytes, so group identity and the final sort order are the literal
// text, exactly as in the scalar Aggregate.
type aggTable struct {
	groups  map[string]*aggGroup
	order   []string
	keyBuf  []byte
	keyVals []value.Value
}

func (a *batchAgg) newTable() *aggTable {
	return &aggTable{groups: make(map[string]*aggGroup), keyVals: make([]value.Value, len(a.keyIdx))}
}

// fold folds the live rows of b into t.
func (a *batchAgg) fold(t *aggTable, b *Batch) error {
	n := b.Len()
	if a.countOnly {
		gr := t.groups[""]
		if gr == nil {
			gr = &aggGroup{states: newAggStates(len(a.aggs))}
			t.groups[""] = gr
			t.order = append(t.order, "")
		}
		for i := range gr.states {
			gr.states[i].count += int64(n)
		}
		return nil
	}
	for r := 0; r < n; r++ {
		p := b.phys(r)
		var row relation.Tuple
		if len(a.unionRefs) > 0 {
			row = b.scratchRowAt(p, a.unionRefs)
		}
		buf := t.keyBuf[:0]
		for i, idx := range a.keyIdx {
			var v value.Value
			if idx >= 0 {
				v = b.cols[idx].Vals[p]
			} else {
				var err error
				v, err = a.keyEvals[i](row, a.ctx)
				if err != nil {
					return err
				}
			}
			t.keyVals[i] = v
			if i > 0 {
				buf = append(buf, 0)
			}
			buf = v.AppendLiteral(buf)
		}
		t.keyBuf = buf
		gr, ok := t.groups[string(buf)] // no allocation: the lookup borrows buf
		if !ok {
			keyCells := make([]relation.Cell, len(a.keyIdx))
			for i, idx := range a.keyIdx {
				if idx >= 0 {
					keyCells[i] = b.cols[idx].Cell(int(p))
				} else {
					keyCells[i] = deriveCell(t.keyVals[i], row, a.keyRefs[i])
				}
			}
			gr = &aggGroup{keyCells: keyCells, states: newAggStates(len(a.aggs))}
			k := string(buf)
			t.groups[k] = gr
			t.order = append(t.order, k)
		}
		for i := range a.aggs {
			var v value.Value
			if a.aggs[i].Arg != nil {
				var err error
				v, err = a.evals[i](row, a.ctx)
				if err != nil {
					return err
				}
			}
			gr.states[i].foldRow(&a.aggs[i], v, a.argRefs[i], row)
		}
	}
	return nil
}

// merge folds src, a partial over input that follows dst's, into dst.
// Groups new to dst move over whole (src is not used afterwards).
func (a *batchAgg) merge(dst, src *aggTable) {
	for _, k := range src.order {
		sg := src.groups[k]
		dg, ok := dst.groups[k]
		if !ok {
			dst.groups[k] = sg
			dst.order = append(dst.order, k)
			continue
		}
		for i := range dg.states {
			dg.states[i].merge(&sg.states[i])
		}
	}
}

// result renders t's groups in sorted key order as the aggregate's rows.
func (a *batchAgg) result(t *aggTable) Iterator {
	if len(a.keyIdx) == 0 && len(t.order) == 0 {
		// Global aggregate over an empty input still yields one row.
		t.groups[""] = &aggGroup{states: newAggStates(len(a.aggs))}
		t.order = append(t.order, "")
	}
	sort.Strings(t.order)
	rows := make([]relation.Tuple, 0, len(t.order))
	for _, k := range t.order {
		gr := t.groups[k]
		cells := append([]relation.Cell(nil), gr.keyCells...)
		for i, s := range a.aggs {
			c := gr.states[i].cell
			c.V = gr.states[i].finish(s.Fn)
			cells = append(cells, c)
		}
		rows = append(rows, relation.Tuple{Cells: cells})
	}
	return &aggregateOp{out: a.out, rows: rows}
}

// merge folds o — the state of the same aggregate over input that follows
// st's — into st, with the fold's own tie rules: the strictly smaller
// (larger) value replaces MIN (MAX), so the earlier value wins ties, and
// the earlier provenance cell seeds the intersection. The float sum adds
// too, but only an AVG or a non-integer SUM reads it, and those never
// merge (partialMergeable).
func (st *aggState) merge(o *aggState) {
	if o.seenCell {
		if !st.seenCell {
			st.cell, st.seenCell = o.cell, true
		} else {
			st.cell.Tags = tag.Intersect(st.cell.Tags, o.cell.Tags)
			st.cell.Sources = st.cell.Sources.Union(o.cell.Sources)
		}
	}
	st.count += o.count
	st.isInt = st.isInt && o.isInt
	st.sum += o.sum
	st.sumI += o.sumI
	if !o.min.IsNull() && (st.min.IsNull() || value.Less(o.min, st.min)) {
		st.min = o.min
	}
	if !o.max.IsNull() && (st.max.IsNull() || value.Less(st.max, o.max)) {
		st.max = o.max
	}
}
