package algebra

import (
	"fmt"
	"sync"

	"repro/internal/relation"
	"repro/internal/schema"
	"repro/internal/storage"
	"repro/internal/tag"
	"repro/internal/value"
)

// This file is the vectorized execution tier: batch-at-a-time iterators
// that move column vectors instead of rows, beside the row-at-a-time
// Volcano tier in ops.go. A batch is a window of column runs — for table
// scans the runs alias the heap's immutable per-segment column storage, so
// a scan→select→project pipeline touches only the columns the query names
// and never materializes a row. The two tiers produce byte-identical
// output; the planner picks per plan shape. FromBatch adapts a batch
// pipeline back into rows, so unported operators (sorts, distinct, set
// ops) keep working unchanged above it. Parallel scans live in morsel.go.

// DefaultBatchSize is the rows-per-batch the vectorized tier uses unless a
// caller asks otherwise: large enough to amortize per-batch dispatch to
// noise, small enough that a batch's column windows stay cache-resident.
const DefaultBatchSize = 1024

// ColVec is one column of a batch: a window of values plus the optional
// quality-metadata runs riding alongside. Tags/Srcs/Meta are either empty
// (no cell in the window carries that metadata) or value-aligned. Vectors
// may alias producer-owned storage — segment column runs, an upstream
// buffer — and are read-only for consumers.
type ColVec struct {
	Vals []value.Value
	Tags []tag.Set
	Srcs []tag.Sources
	Meta []map[string]tag.Set
}

// Cell materializes slot off as a relation.Cell.
func (v *ColVec) Cell(off int) relation.Cell {
	c := relation.Cell{V: v.Vals[off]}
	if off < len(v.Tags) {
		c.Tags = v.Tags[off]
	}
	if off < len(v.Srcs) {
		c.Sources = v.Srcs[off]
	}
	if off < len(v.Meta) {
		c.Meta = v.Meta[off]
	}
	return c
}

// appendCell appends one cell to the vector. Metadata runs stay absent
// until the first cell that carries them, then are zero-backfilled so they
// remain value-aligned — mirroring the heap's column-run layout.
func (v *ColVec) appendCell(c relation.Cell) {
	off := len(v.Vals)
	v.Vals = append(v.Vals, c.V)
	if len(v.Tags) > 0 || !c.Tags.IsEmpty() {
		var zero tag.Set
		for len(v.Tags) < off {
			v.Tags = append(v.Tags, zero)
		}
		v.Tags = append(v.Tags, c.Tags)
	}
	if len(v.Srcs) > 0 || len(c.Sources) > 0 {
		for len(v.Srcs) < off {
			v.Srcs = append(v.Srcs, nil)
		}
		v.Srcs = append(v.Srcs, c.Sources)
	}
	if len(v.Meta) > 0 || len(c.Meta) > 0 {
		for len(v.Meta) < off {
			v.Meta = append(v.Meta, nil)
		}
		v.Meta = append(v.Meta, c.Meta)
	}
}

// reset empties the vector for refilling, keeping backing capacity.
func (v *ColVec) reset() {
	v.Vals = v.Vals[:0]
	v.Tags = v.Tags[:0]
	v.Srcs = v.Srcs[:0]
	v.Meta = v.Meta[:0]
}

// release drops the vector's references so pooled buffers never pin heap
// segments or result values.
func (v *ColVec) release() {
	clear(v.Vals[:cap(v.Vals)])
	clear(v.Tags[:cap(v.Tags)])
	clear(v.Srcs[:cap(v.Srcs)])
	clear(v.Meta[:cap(v.Meta)])
	v.reset()
}

// window returns slots [lo, hi) of the vector. An empty vector (a column
// the scan did not materialize) stays empty, and absent metadata runs stay
// absent.
func (v *ColVec) window(lo, hi int) ColVec {
	if len(v.Vals) == 0 {
		return ColVec{}
	}
	w := ColVec{Vals: v.Vals[lo:hi]}
	if len(v.Tags) > 0 {
		w.Tags = v.Tags[lo:hi]
	}
	if len(v.Srcs) > 0 {
		w.Srcs = v.Srcs[lo:hi]
	}
	if len(v.Meta) > 0 {
		w.Meta = v.Meta[lo:hi]
	}
	return w
}

// Batch is one unit of vectorized data flow: n row slots of column
// vectors plus an optional selection vector listing the live slots in
// order. Vectors may alias producer-owned storage (segment column runs, an
// upstream buffer) and are valid only until the next NextBatch call on the
// producer. Consumers must treat them as read-only — batch pipelines run
// over shared, zero-clone segment reads.
//
// Producers must never deliver vectors (or a selection) aliasing a
// *pooled* batch's storage: batchLimit stops its producer eagerly once the
// quota fills, which returns the producer's pooled buffers to the global
// pool while the consumer is still reading the final batch — a buffer
// another goroutine may immediately pick up and overwrite. Delivered data
// may alias only immutable heap runs, the consumer's own batch, or
// producer-owned unpooled arrays.
type Batch struct {
	n    int
	cols []ColVec
	sel  []int32

	// colBuf and selBuf are the batch's owned backing storage, reused
	// across refills; producers that materialize columns (computed
	// projections, the join) fill colBuf, filters fill selBuf.
	// scratch is the reusable row for scalar expression evaluation over
	// column slots (scratchRowAt).
	colBuf  []ColVec
	selBuf  []int32
	scratch []relation.Cell
}

// NewBatch returns a batch with owned selection capacity for size rows,
// bypassing the pool; most callers want getBatch/putBatch instead.
func NewBatch(size int) *Batch {
	if size < 1 {
		size = 1
	}
	return &Batch{selBuf: make([]int32, 0, size)}
}

// Len reports the number of live rows in the batch.
func (b *Batch) Len() int {
	if b.sel != nil {
		return len(b.sel)
	}
	return b.n
}

// phys maps the i-th live row to its physical slot offset.
func (b *Batch) phys(i int) int32 {
	if b.sel != nil {
		return b.sel[i]
	}
	return int32(i)
}

// Row materializes the i-th live row (selection applied) with a fresh cell
// slice, safe to retain past the batch's lifetime.
func (b *Batch) Row(i int) relation.Tuple {
	p := int(b.phys(i))
	cells := make([]relation.Cell, len(b.cols))
	for c := range b.cols {
		cells[c] = b.cols[c].Cell(p)
	}
	return relation.Tuple{Cells: cells}
}

// scratchRowAt assembles physical slot p as a row in the batch's scratch
// buffer, filling only the referenced columns — sufficient for any bound
// evaluator, since evaluators read exactly their ReferencedCols. The tuple
// aliases the scratch buffer and is valid until the next call.
func (b *Batch) scratchRowAt(p int32, refs []int) relation.Tuple {
	w := len(b.cols)
	if cap(b.scratch) < w {
		b.scratch = make([]relation.Cell, w)
	}
	cells := b.scratch[:w]
	for _, c := range refs {
		cells[c] = b.cols[c].Cell(int(p))
	}
	return relation.Tuple{Cells: cells}
}

// reset detaches the batch from any producer storage.
func (b *Batch) reset() { b.n, b.cols, b.sel = 0, nil, nil }

// truncate narrows the batch to its live rows [lo, hi). A dense batch
// gains an identity selection — the column windows themselves may alias
// producer storage and are never re-sliced.
func (b *Batch) truncate(lo, hi int) {
	if b.sel != nil {
		b.sel = b.sel[lo:hi]
		return
	}
	sel := b.selBuf[:0]
	for i := lo; i < hi; i++ {
		sel = append(sel, int32(i))
	}
	b.selBuf = sel
	b.sel = sel
}

// ownedCols returns the batch's owned column buffer resized to width w,
// each vector emptied for appending.
func (b *Batch) ownedCols(w int) []ColVec {
	for len(b.colBuf) < w {
		b.colBuf = append(b.colBuf, ColVec{})
	}
	cols := b.colBuf[:w]
	for i := range cols {
		cols[i].reset()
	}
	return cols
}

// setOwned publishes n dense rows from the batch's own column buffer.
func (b *Batch) setOwned(cols []ColVec, n int) {
	b.cols, b.n, b.sel = cols, n, nil
}

// batchPool recycles batch buffers across plans. Batches hold column
// buffers a kilorow long; recycling them keeps the vectorized hot path
// allocation-free once warm.
var batchPool = sync.Pool{New: func() any { return &Batch{} }}

// getBatch fetches a pooled batch with selection capacity for size rows.
func getBatch(size int) *Batch {
	if size < 1 {
		size = 1
	}
	b := batchPool.Get().(*Batch)
	if cap(b.selBuf) < size {
		b.selBuf = make([]int32, 0, size)
	}
	b.reset()
	return b
}

// putBatch returns a batch to the pool, dropping its column references so
// a pooled buffer never pins heap segments or result values.
func putBatch(b *Batch) {
	if b == nil {
		return
	}
	for i := range b.colBuf {
		b.colBuf[i].release()
	}
	clear(b.scratch)
	b.reset()
	batchPool.Put(b)
}

// BatchIterator is the pull-based batch stream the vectorized operators
// implement. NextBatch refills b — columns, selection, possibly aliasing
// storage owned by the producer and valid until the next call — and
// reports false at end of stream. A delivered batch always has at least
// one live row. Iterators holding buffers or background resources also
// implement Stopper; an exhausted or errored iterator has released its own
// resources already, and Stop is idempotent.
type BatchIterator interface {
	Schema() *schema.Schema
	NextBatch(b *Batch) (bool, error)
}

// stopIfStopper releases x's resources when it is a Stopper.
func stopIfStopper(x any) {
	if s, ok := x.(Stopper); ok {
		s.Stop()
	}
}

// ---- Batch column scan ----

// SegPrune is one sargable conjunct (column ⊗ constant) a batch scan tests
// against per-segment column min/max statistics: a segment whose value
// range cannot satisfy the conjunct is skipped without reading a single
// slot. PrunableSargs extracts them from a bound predicate.
type SegPrune struct {
	Col int // bound schema column index
	Op  CmpOp
	K   value.Value
}

// skip reports whether a segment whose column summarizes to st can be
// skipped: no value in [Min, Max] could make the comparison definitely
// true. A column with no non-null values (!st.OK) is always skippable —
// comparisons against null are never true. Stats are a conservative
// superset of the live values, so skip errs toward scanning.
func (p *SegPrune) skip(st storage.ColStats) bool {
	if !st.OK {
		return true
	}
	cmpMin := value.ComparePtr(&p.K, &st.Min)
	cmpMax := value.ComparePtr(&p.K, &st.Max)
	switch p.Op {
	case OpEq:
		return cmpMin < 0 || cmpMax > 0
	case OpNe:
		return cmpMin == 0 && cmpMax == 0
	case OpLt:
		return cmpMin <= 0 // satisfiable only when Min < K
	case OpLe:
		return cmpMin < 0
	case OpGt:
		return cmpMax >= 0 // satisfiable only when Max > K
	case OpGe:
		return cmpMax > 0
	}
	return false
}

// scanColumns returns the column list a scan must read — the requested
// columns plus any prune column the caller did not request, since a
// prune reads its column's statistics — and, per prune, the position of
// its column in that list.
func scanColumns(cols []int, prunes []SegPrune) (need, prAt []int) {
	need = append([]int(nil), cols...)
	pos := make(map[int]int, len(need))
	for i, c := range need {
		pos[c] = i
	}
	prAt = make([]int, len(prunes))
	for i, p := range prunes {
		at, ok := pos[p.Col]
		if !ok {
			at = len(need)
			need = append(need, p.Col)
			pos[p.Col] = at
		}
		prAt[i] = at
	}
	return need, prAt
}

// segPruned reports whether some prune conjunct refutes the loaded
// segment by its min/max statistics.
func segPruned(prunes []SegPrune, prAt []int, cs *storage.ColSeg) bool {
	for i := range prunes {
		if prunes[i].skip(cs.Cols[prAt[i]].Stats) {
			return true
		}
	}
	return false
}

// segVecs points full-width column vectors at a loaded segment's runs:
// column cols[i] gets run i, every other column stays empty. vecs is
// reused when it already has the schema's width.
func segVecs(cs *storage.ColSeg, cols []int, vecs []ColVec, width int) []ColVec {
	if len(vecs) != width {
		vecs = make([]ColVec, width)
	} else {
		clear(vecs)
	}
	for i, c := range cols {
		r := &cs.Cols[i]
		vecs[c] = ColVec{Vals: r.Vals, Tags: r.Tags, Srcs: r.Srcs, Meta: r.Meta}
	}
	return vecs
}

// segWindows deals one loaded segment out as batches of at most size
// slots: windows [0, size), [size, 2·size), ... of the segment's first n
// slots, each with the live slots of sel (ascending; nil when every slot
// is live) rebased into the consumer batch's own selection buffer. A
// window with no live slot is skipped. Delivered vectors alias vecs'
// storage through the reusable hdrs headers.
type segWindows struct {
	vecs   []ColVec
	n      int
	sel    []int32
	pos    int
	selPos int
	hdrs   []ColVec
}

func (w *segWindows) load(vecs []ColVec, n int, sel []int32) {
	w.vecs, w.n, w.sel, w.pos, w.selPos = vecs, n, sel, 0, 0
}

// next fills b with the next window holding a live slot; false once the
// segment is exhausted.
func (w *segWindows) next(b *Batch, size int) bool {
	for w.pos < w.n {
		lo := w.pos
		cnt := min(w.n-lo, size)
		w.pos += cnt
		var sel []int32
		if w.sel != nil {
			sel = b.selBuf[:0]
			for w.selPos < len(w.sel) && int(w.sel[w.selPos]) < lo+cnt {
				sel = append(sel, w.sel[w.selPos]-int32(lo))
				w.selPos++
			}
			b.selBuf = sel
			if len(sel) == 0 {
				continue // window fully dead
			}
		}
		if len(w.hdrs) != len(w.vecs) {
			w.hdrs = make([]ColVec, len(w.vecs))
		}
		for i := range w.vecs {
			w.hdrs[i] = w.vecs[i].window(lo, lo+cnt)
		}
		b.cols, b.n, b.sel = w.hdrs, cnt, sel
		return true
	}
	return false
}

type batchColScan struct {
	t      *storage.Table
	size   int
	nSeg   int
	cols   []int // schema column indexes to materialize
	width  int   // full schema width
	prunes []SegPrune
	prAt   []int // position in cols of each prune's column

	cs      storage.ColSeg
	vecs    []ColVec
	win     segWindows
	seg     int
	loaded  bool
	done    bool
	skipped int
}

// NewBatchColScan streams a table's segments as column-vector batches of
// up to size rows, materializing only the requested columns (bound schema
// indexes) — every other vector in the delivered batch is empty. The
// vectors alias the heap's immutable column runs: zero rows are cloned,
// zero cells are copied, and a batch is valid only until the next
// NextBatch. Segments whose min/max statistics refute a prune conjunct are
// skipped whole. Consumers must only touch requested columns.
func NewBatchColScan(t *storage.Table, size int, cols []int, prunes []SegPrune) BatchIterator {
	if size < 1 {
		size = DefaultBatchSize
	}
	need, prAt := scanColumns(cols, prunes)
	return &batchColScan{t: t, size: size, nSeg: t.Segments(), cols: need,
		width: len(t.Schema().Attrs), prunes: prunes, prAt: prAt}
}

// NewBatchTableScan streams every column of a storage table in batches of
// up to size rows — NewBatchColScan with the full column list and no
// pruning. Batches are segment-aligned and rows arrive in row-ID order.
func NewBatchTableScan(t *storage.Table, size int) BatchIterator {
	return NewBatchColScan(t, size, allCols(len(t.Schema().Attrs)), nil)
}

// allCols lists column indexes 0..width-1.
func allCols(width int) []int {
	cols := make([]int, width)
	for i := range cols {
		cols[i] = i
	}
	return cols
}

func (s *batchColScan) Schema() *schema.Schema { return s.t.Schema() }

func (s *batchColScan) SizeHint() int { return s.t.Len() }

// ExtraStats reports the segment-skipping outcome for EXPLAIN ANALYZE.
func (s *batchColScan) ExtraStats() string {
	return fmt.Sprintf("segments skipped=%d of %d", s.skipped, s.nSeg)
}

// Stop drops the scan's window over the heap so an early-terminated scan
// (a filled LIMIT) releases it immediately.
func (s *batchColScan) Stop() {
	s.done = true
	s.loaded = false
	s.cs = storage.ColSeg{}
	s.vecs = nil
	s.win = segWindows{}
}

func (s *batchColScan) NextBatch(b *Batch) (bool, error) {
	if s.done {
		return false, nil
	}
	for {
		if s.loaded && s.win.next(b, s.size) {
			return true, nil
		}
		s.loaded = false
		if s.seg >= s.nSeg || !s.t.ScanSegmentCols(s.seg, s.cols, &s.cs) {
			s.done = true
			return false, nil
		}
		s.seg++
		if segPruned(s.prunes, s.prAt, &s.cs) {
			s.skipped++
			continue
		}
		s.vecs = segVecs(&s.cs, s.cols, s.vecs, s.width)
		s.win.load(s.vecs, s.cs.N, s.cs.Sel)
		s.loaded = true
	}
}

// ---- Batch rename ----

type batchRename struct {
	in  BatchIterator
	out *schema.Schema
}

// NewBatchRename renames the stream's relation, the batch counterpart of
// NewRename's relation-name case.
func NewBatchRename(in BatchIterator, relName string) BatchIterator {
	s := in.Schema().Clone()
	s.Name = relName
	return &batchRename{in: in, out: s}
}

func (r *batchRename) Schema() *schema.Schema           { return r.out }
func (r *batchRename) SizeHint() int                    { return sizeHint(r.in) }
func (r *batchRename) NextBatch(b *Batch) (bool, error) { return r.in.NextBatch(b) }
func (r *batchRename) Stop()                            { stopIfStopper(r.in) }

// ---- Batch select ----

// batchFilter is a bound predicate in batch form: a column kernel when
// the predicate compiles to one, else a scalar Predicate evaluated per
// live slot over a scratch row holding only its referenced columns. It is
// read-only after construction, so parallel scan workers share one.
type batchFilter struct {
	kern ColPred   // column kernel, when the predicate compiles to one
	pred Predicate // scalar fallback over scratch rows
	refs []int
	ctx  *EvalContext
}

// newBatchFilter binds pred against s and picks its evaluation form:
// compiled tries the column kernel, then CompilePredicate; otherwise the
// interpreted Truth.
func newBatchFilter(pred Expr, s *schema.Schema, ctx *EvalContext, compiled bool) (*batchFilter, error) {
	if err := pred.Bind(s); err != nil {
		return nil, err
	}
	f := &batchFilter{ctx: ctx, refs: ReferencedCols(pred)}
	if !compiled {
		f.pred = InterpretedPredicate(pred)
		return f, nil
	}
	if k, ok := CompileColPred(pred, len(s.Attrs)); ok {
		f.kern = k
	} else {
		f.pred = CompilePredicate(pred)
	}
	return f, nil
}

// refine appends b's live slots that pass the filter to dst, in slot
// order, and returns it. On an evaluation error it also returns the
// failing slot; dst then holds the survivors before it. dst may share
// b.sel's backing array: a write never overtakes the read it follows.
func (f *batchFilter) refine(b *Batch, dst []int32) ([]int32, int32, error) {
	if f.kern != nil {
		if b.sel != nil {
			for _, i := range b.sel {
				if f.kern(b.cols, i) {
					dst = append(dst, i)
				}
			}
		} else {
			for i := 0; i < b.n; i++ {
				if f.kern(b.cols, int32(i)) {
					dst = append(dst, int32(i))
				}
			}
		}
		return dst, 0, nil
	}
	n := b.Len()
	for i := 0; i < n; i++ {
		p := b.phys(i)
		keep, err := f.pred(b.scratchRowAt(p, f.refs), f.ctx)
		if err != nil {
			return dst, p, err
		}
		if keep {
			dst = append(dst, p)
		}
	}
	return dst, 0, nil
}

type batchSelect struct {
	in BatchIterator
	f  *batchFilter
}

// NewBatchSelect keeps the rows whose predicate is definitely true,
// refining each batch's selection vector in place — columns are not copied
// or compacted, the vector just skips the losers. When compiled and the
// predicate is an AND/OR tree of column⊗constant comparisons, it runs as a
// type-specialized column kernel: the constant's comparison is specialized
// once (value.CompareFn) and applied straight down the value vector, with
// no row assembly at all. Everything else evaluates per live row over a
// scratch row holding only the predicate's referenced columns.
func NewBatchSelect(in BatchIterator, pred Expr, ctx *EvalContext, compiled bool) (BatchIterator, error) {
	f, err := newBatchFilter(pred, in.Schema(), ctx, compiled)
	if err != nil {
		return nil, err
	}
	return &batchSelect{in: in, f: f}, nil
}

func (s *batchSelect) Schema() *schema.Schema { return s.in.Schema() }

func (s *batchSelect) Stop() { stopIfStopper(s.in) }

func (s *batchSelect) NextBatch(b *Batch) (bool, error) {
	for {
		ok, err := s.in.NextBatch(b)
		if err != nil || !ok {
			return false, err
		}
		// Refine in place: when a selection vector already exists (a select
		// upstream, or a scan window), it lives in selBuf too, and refine
		// never writes past what it has read.
		sel, _, err := s.f.refine(b, b.selBuf[:0])
		b.selBuf = sel
		if err != nil {
			return false, err
		}
		if len(sel) > 0 {
			b.sel = sel
			return true, nil
		}
	}
}

// ---- Batch project ----

type batchProject struct {
	in        BatchIterator
	proj      *projection
	ctx       *EvalContext
	size      int
	allPlain  bool
	unionRefs []int
	hdrs      []ColVec
	buf       *Batch // pooled input batch, released on exhaustion/Stop
	stopped   bool
}

// NewBatchProject projects batches through the same bound projection core
// as NewProject. A projection of plain column references is free: the
// output batch just re-points at the input's column vectors in output
// order, keeping the input's selection. Projections with computed items
// materialize dense output columns, deriving provenance cells exactly like
// the scalar operator.
func NewBatchProject(in BatchIterator, items []ProjectItem, ctx *EvalContext, size int, compiled bool) (BatchIterator, error) {
	proj, err := bindProjection(in.Schema(), items, compiled)
	if err != nil {
		return nil, err
	}
	if size < 1 {
		size = DefaultBatchSize
	}
	p := &batchProject{in: in, proj: proj, ctx: ctx, size: size, allPlain: true}
	seen := map[int]bool{}
	for i, c := range proj.cols {
		if c >= 0 {
			if !seen[c] {
				seen[c] = true
				p.unionRefs = append(p.unionRefs, c)
			}
			continue
		}
		p.allPlain = false
		for _, r := range proj.refs[i] {
			if !seen[r] {
				seen[r] = true
				p.unionRefs = append(p.unionRefs, r)
			}
		}
	}
	return p, nil
}

func (p *batchProject) Schema() *schema.Schema { return p.proj.out }

func (p *batchProject) SizeHint() int { return sizeHint(p.in) }

// Stop releases the input batch back to the pool and stops the producer.
func (p *batchProject) Stop() {
	p.stopped = true
	if p.buf != nil {
		putBatch(p.buf)
		p.buf = nil
	}
	stopIfStopper(p.in)
}

func (p *batchProject) NextBatch(b *Batch) (bool, error) {
	if p.stopped {
		return false, nil
	}
	if p.allPlain {
		// A plain-reference projection is free: drive the consumer's own
		// batch through the input and re-point the headers in output order.
		// No pooled project buffer is involved, so the delivered vectors
		// alias only what the producer put in b (heap runs, b's own
		// buffers) — a downstream Stop may release this operator while the
		// consumer is still reading the batch.
		ok, err := p.in.NextBatch(b)
		if err != nil || !ok {
			p.Stop()
			return false, err
		}
		if p.hdrs == nil {
			p.hdrs = make([]ColVec, len(p.proj.cols))
		}
		for i, c := range p.proj.cols {
			p.hdrs[i] = b.cols[c]
		}
		b.cols = p.hdrs
		return true, nil
	}
	if p.buf == nil {
		p.buf = getBatch(p.size)
	}
	ok, err := p.in.NextBatch(p.buf)
	if err != nil || !ok {
		p.Stop()
		return false, err
	}
	n := p.buf.Len()
	out := b.ownedCols(len(p.proj.items))
	for i := 0; i < n; i++ {
		pp := p.buf.phys(i)
		var t relation.Tuple
		if len(p.unionRefs) > 0 {
			t = p.buf.scratchRowAt(pp, p.unionRefs)
		}
		for j := range p.proj.items {
			if col := p.proj.cols[j]; col >= 0 {
				out[j].appendCell(p.buf.cols[col].Cell(int(pp)))
				continue
			}
			v, err := p.proj.evals[j](t, p.ctx)
			if err != nil {
				p.Stop()
				return false, err
			}
			out[j].appendCell(deriveCell(v, t, p.proj.refs[j]))
		}
	}
	b.setOwned(out, n)
	return true, nil
}

// ---- Batch limit ----

type batchLimit struct {
	in      BatchIterator
	limit   int
	offset  int
	emitted int
	skipped int
	done    bool
}

// NewBatchLimit emits at most limit rows after skipping offset (negative
// limit means unlimited), trimming batches at the boundaries. Once the
// limit is reached the producer is stopped immediately, so upstream batch
// buffers are released before the final batch is even consumed.
func NewBatchLimit(in BatchIterator, limit, offset int) BatchIterator {
	return &batchLimit{in: in, limit: limit, offset: offset}
}

func (l *batchLimit) Schema() *schema.Schema { return l.in.Schema() }

func (l *batchLimit) SizeHint() int {
	hint := sizeHint(l.in)
	if l.limit >= 0 && (hint < 0 || l.limit < hint) {
		return l.limit
	}
	return hint
}

func (l *batchLimit) Stop() {
	l.done = true
	stopIfStopper(l.in)
}

func (l *batchLimit) NextBatch(b *Batch) (bool, error) {
	if l.done {
		return false, nil
	}
	for {
		ok, err := l.in.NextBatch(b)
		if err != nil || !ok {
			l.Stop()
			return false, err
		}
		n := b.Len()
		if l.skipped < l.offset {
			skip := l.offset - l.skipped
			if skip >= n {
				l.skipped += n
				continue
			}
			l.skipped = l.offset
			b.truncate(skip, n)
			n -= skip
		}
		if l.limit >= 0 {
			remain := l.limit - l.emitted
			if remain <= 0 {
				l.Stop()
				return false, nil
			}
			if n > remain {
				b.truncate(0, remain)
				n = remain
			}
		}
		l.emitted += n
		if l.limit >= 0 && l.emitted >= l.limit {
			// Stop eagerly: the delivered batch stays valid (its vectors
			// alias heap column runs or the consumer's own buffer, never the
			// producer's pooled storage).
			l.Stop()
		}
		return true, nil
	}
}

// ---- Batch aggregate sink ----

// NewBatchAggregate computes global (ungrouped) aggregates over a batch
// stream, draining it eagerly like NewAggregate and yielding the single
// result row — same output schema, same provenance folding, same
// empty-input behavior (one row). COUNT(*)-only aggregations never touch
// the columns at all: each batch contributes its length, which is the
// vectorized tier's fastest path. compiled selects Compile for the
// aggregate arguments. It is NewBatchGroupedAggregate with no group keys
// (aggbatch.go), including the fold inside parallel scan workers.
func NewBatchAggregate(in BatchIterator, aggs []AggSpec, ctx *EvalContext, size int, compiled bool) (Iterator, error) {
	return NewBatchGroupedAggregate(in, nil, aggs, ctx, size, compiled)
}

// ---- Adapter ----

type fromBatch struct {
	in   BatchIterator
	size int
	buf  *Batch
	pos  int
	done bool
}

// NewFromBatch adapts a batch stream back into a row iterator, so scalar
// operators (sorts, joins, distinct, Collect) consume vectorized pipelines
// unchanged. Each delivered row is materialized with a fresh cell slice —
// rows escape the batch's lifetime. It owns one pooled batch, released
// deterministically when the stream ends or Stop is called.
func NewFromBatch(in BatchIterator, size int) Iterator {
	if size < 1 {
		size = DefaultBatchSize
	}
	return &fromBatch{in: in, size: size}
}

func (f *fromBatch) Schema() *schema.Schema { return f.in.Schema() }

func (f *fromBatch) SizeHint() int { return sizeHint(f.in) }

// Stop implements Stopper: releases the adapter's batch and stops the
// batch pipeline beneath it (which releases its own buffers and any scan
// workers). plan teardown calls it via plan.release.
func (f *fromBatch) Stop() {
	f.done = true
	if f.buf != nil {
		putBatch(f.buf)
		f.buf = nil
	}
	stopIfStopper(f.in)
}

func (f *fromBatch) Next() (relation.Tuple, bool, error) {
	if f.done {
		return relation.Tuple{}, false, nil
	}
	if f.buf == nil {
		f.buf = getBatch(f.size)
	}
	for f.pos >= f.buf.Len() {
		ok, err := f.in.NextBatch(f.buf)
		if err != nil || !ok {
			f.Stop()
			return relation.Tuple{}, false, err
		}
		f.pos = 0
	}
	t := f.buf.Row(f.pos)
	f.pos++
	return t, true, nil
}
