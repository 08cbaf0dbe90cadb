package algebra

import (
	"repro/internal/relation"
	"repro/internal/schema"
	"repro/internal/value"
)

// Batch-native hash join: the build side is transposed into column
// vectors keyed by hash, and the probe side streams through in batches,
// evaluating keys straight off column vectors — no per-row tuple
// materialization until a match actually survives the key confirm and
// residual. The build table and the probe's bound evaluators (joinProbe)
// are read-only once built, apart from the per-probe cursor
// (probeCursor), so parallel scan workers probe one shared build.

// joinProbe is the shared, read-only half of a batch hash join: the build
// side, materialized in the constructor — right rows stored columnar,
// their key values dense, and hash buckets listing row indexes in stream
// order (which is what keeps output order identical to the Volcano join)
// — plus the bound left-key and residual evaluators.
type joinProbe struct {
	rstore  []ColVec
	rkeys   []value.Value
	buckets map[uint64][]int32

	lkIdx  int // bound ColRef index of the left key, -1 when computed
	lkEval Compiled
	lkRefs []int
	resid  Predicate // nil when no residual
	ctx    *EvalContext
	lw, rw int
}

// probeCursor is one prober's position in a probe batch, persisted across
// output-batch boundaries, plus its scratch joined row.
type probeCursor struct {
	row        []relation.Cell
	li         int
	lk         value.Value
	matches    []int32
	mi         int
	leftFilled bool
}

// reset starts the cursor on a new probe batch.
func (c *probeCursor) reset() { c.li, c.matches = 0, nil }

// leftKeyAt evaluates the left key for physical slot p of the probe batch.
func (jp *joinProbe) leftKeyAt(in *Batch, p int32) (value.Value, error) {
	if jp.lkIdx >= 0 {
		return in.cols[jp.lkIdx].Vals[p], nil
	}
	return jp.lkEval(in.scratchRowAt(p, jp.lkRefs), jp.ctx)
}

// fill probes in's live rows from the cursor on, appending joined rows to
// out (which already holds cnt rows) until it holds limit rows or the
// probe batch is exhausted. full reports the former: the cursor then sits
// mid-batch and the next fill resumes there. Only the emit columns of out
// are filled; a consumer that reads no column (COUNT(*)) copies no cell.
func (jp *joinProbe) fill(c *probeCursor, in *Batch, out []ColVec, emit []int, cnt, limit int) (n int, full bool, err error) {
	if c.row == nil {
		c.row = make([]relation.Cell, jp.lw+jp.rw)
	}
	for c.li < in.Len() {
		p := in.phys(c.li)
		if c.matches == nil {
			lk, err := jp.leftKeyAt(in, p)
			if err != nil {
				return cnt, false, err
			}
			c.mi, c.leftFilled = 0, false
			if lk.IsNull() {
				c.li++
				continue
			}
			c.lk = lk
			c.matches = jp.buckets[lk.Hash()]
			if c.matches == nil {
				c.matches = emptyMatches // distinguish "probed" from "not yet"
			}
		}
		for c.mi < len(c.matches) {
			m := c.matches[c.mi]
			c.mi++
			if !value.EqualPtr(&c.lk, &jp.rkeys[m]) {
				continue // hash collision
			}
			if jp.resid != nil {
				if !c.leftFilled {
					for col := 0; col < jp.lw; col++ {
						c.row[col] = in.cols[col].Cell(int(p))
					}
					c.leftFilled = true
				}
				for col := 0; col < jp.rw; col++ {
					c.row[jp.lw+col] = jp.rstore[col].Cell(int(m))
				}
				keep, err := jp.resid(relation.Tuple{Cells: c.row}, jp.ctx)
				if err != nil {
					return cnt, false, err
				}
				if !keep {
					continue
				}
			}
			for _, col := range emit {
				if col < jp.lw {
					out[col].appendCell(in.cols[col].Cell(int(p)))
				} else {
					out[col].appendCell(jp.rstore[col-jp.lw].Cell(int(m)))
				}
			}
			cnt++
			if cnt >= limit {
				return cnt, true, nil
			}
		}
		c.matches = nil
		c.li++
	}
	return cnt, false, nil
}

type batchHashJoin struct {
	left BatchIterator
	out  *schema.Schema
	size int
	jp   *joinProbe
	all  []int // every output column: the join emits whole rows

	// Probe state, persisted across NextBatch calls.
	cur    probeCursor
	buf    *Batch
	loaded bool
	done   bool
}

// NewBatchHashJoin is the batch-native equi-join on leftKey = rightKey
// with an optional residual predicate — same matching rules, output schema
// and output order as NewHashJoin (left stream order × build insertion
// order; null keys never join; hash matches are confirmed by value). The
// right input is drained and transposed into the columnar build table in
// the constructor; compiled selects compiled key/residual evaluation.
func NewBatchHashJoin(left, right BatchIterator, leftKey, rightKey, residual Expr, ctx *EvalContext, size int, compiled bool) (BatchIterator, error) {
	out, err := joinSchema(left.Schema(), right.Schema())
	if err != nil {
		return nil, err
	}
	if err := leftKey.Bind(left.Schema()); err != nil {
		return nil, err
	}
	if err := rightKey.Bind(right.Schema()); err != nil {
		return nil, err
	}
	if size < 1 {
		size = DefaultBatchSize
	}
	evalOf := func(e Expr) Compiled {
		if compiled {
			return Compile(e)
		}
		return e.Eval
	}
	jp := &joinProbe{
		lw: len(left.Schema().Attrs), rw: len(right.Schema().Attrs),
		buckets: make(map[uint64][]int32),
		lkIdx:   -1, lkEval: evalOf(leftKey), ctx: ctx,
	}
	if residual != nil {
		if err := residual.Bind(out); err != nil {
			return nil, err
		}
		if compiled {
			jp.resid = CompilePredicate(residual)
		} else {
			jp.resid = InterpretedPredicate(residual)
		}
	}
	if cr, ok := leftKey.(*ColRef); ok {
		jp.lkIdx = cr.idx
	} else {
		jp.lkRefs = ReferencedCols(leftKey)
	}
	jp.rstore = make([]ColVec, jp.rw)

	// Drain and transpose the build side.
	rkIdx := -1
	var rkRefs []int
	if cr, ok := rightKey.(*ColRef); ok {
		rkIdx = cr.idx
	} else {
		rkRefs = ReferencedCols(rightKey)
	}
	rkEval := evalOf(rightKey)
	rb := getBatch(size)
	defer func() {
		putBatch(rb)
		stopIfStopper(right)
	}()
	for {
		ok, err := right.NextBatch(rb)
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
		n := rb.Len()
		for i := 0; i < n; i++ {
			p := rb.phys(i)
			var k value.Value
			if rkIdx >= 0 {
				k = rb.cols[rkIdx].Vals[p]
			} else {
				k, err = rkEval(rb.scratchRowAt(p, rkRefs), ctx)
				if err != nil {
					return nil, err
				}
			}
			if k.IsNull() {
				continue // null keys never join
			}
			m := int32(len(jp.rkeys))
			for c := range jp.rstore {
				jp.rstore[c].appendCell(rb.cols[c].Cell(int(p)))
			}
			jp.rkeys = append(jp.rkeys, k)
			h := k.Hash()
			jp.buckets[h] = append(jp.buckets[h], m)
		}
	}
	j := &batchHashJoin{left: left, out: out, size: size, jp: jp, all: allCols(jp.lw + jp.rw)}
	if len(jp.buckets) == 0 {
		// Nothing can match; release the probe side without scanning it.
		stopIfStopper(left)
		j.done = true
	}
	return j, nil
}

func (j *batchHashJoin) Schema() *schema.Schema { return j.out }

// Stop releases the probe batch and both inputs' resources; the build
// table is dropped for the collector.
func (j *batchHashJoin) Stop() {
	j.done = true
	if j.buf != nil {
		putBatch(j.buf)
		j.buf = nil
	}
	j.jp = nil
	stopIfStopper(j.left)
}

func (j *batchHashJoin) NextBatch(b *Batch) (bool, error) {
	if j.done {
		return false, nil
	}
	if j.buf == nil {
		j.buf = getBatch(j.size)
	}
	out := b.ownedCols(j.jp.lw + j.jp.rw)
	cnt := 0
	for {
		if !j.loaded {
			ok, err := j.left.NextBatch(j.buf)
			if err != nil {
				j.Stop()
				return false, err
			}
			if !ok {
				j.Stop()
				if cnt > 0 {
					b.setOwned(out, cnt)
					return true, nil
				}
				return false, nil
			}
			j.cur.reset()
			j.loaded = true
		}
		var full bool
		var err error
		cnt, full, err = j.jp.fill(&j.cur, j.buf, out, j.all, cnt, j.size)
		if err != nil {
			j.Stop()
			return false, err
		}
		if full {
			b.setOwned(out, cnt)
			return true, nil
		}
		j.loaded = false
	}
}

// emptyMatches marks a probed key with no bucket; non-nil so the cursor
// does not re-probe.
var emptyMatches = []int32{}
