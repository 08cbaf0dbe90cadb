package algebra

import (
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/schema"
	"repro/internal/storage"
)

// Morsel-driven parallel execution for the batch tier (after Leis et al.,
// SIGMOD 2014): workers claim heap segments from a shared counter and run
// the columnar scan, the fused WHERE/WITH QUALITY filter and — when the
// plan allows — a join probe and a partial aggregate on each segment; the
// consumer takes the per-segment results strictly in segment order, so
// the output is the serial batch pipeline's, byte for byte.

// scanCfg is the read-only description of a parallel scan the workers
// share: which columns to read, which segments min/max statistics may
// skip, and the fused predicate. It is allocated apart from the scan so
// workers never reference the scan itself (whose finalizer must be able
// to run while they are parked).
type scanCfg struct {
	t      *storage.Table
	size   int
	cols   []int // requested columns plus prune columns
	width  int
	prunes []SegPrune
	prAt   []int
	filter *batchFilter // fused predicate; nil when none

	workerSegs []atomic.Int64 // segments claimed per worker (occupancy)
	skipped    atomic.Int64   // segments refuted by min/max
}

// segOut is one claimed segment's result, recycled through the in-flight
// budget: the segment's columns and live selection after the fused
// filter, or the partial aggregate a fold pipeline produced from them.
type segOut struct {
	seg    int
	cs     storage.ColSeg
	vecs   []ColVec
	n      int     // slots to deliver; cut before the window of a filter error
	sel    []int32 // surviving slots below n; nil when every slot survives
	selBuf []int32
	part   *aggTable
	err    error
}

// scan reads segment seg into o and applies the fused filter over the
// whole segment at once. A filter error ends the segment at the start of
// the batch window it occurred in: the windows before it are exactly what
// a serial scan → select pipeline delivers before failing. It reports
// false for a segment the prunes refute (or that no longer exists).
func (c *scanCfg) scan(seg int, o *segOut, b *Batch) bool {
	o.n, o.sel, o.part, o.err = 0, nil, nil, nil
	if !c.t.ScanSegmentCols(seg, c.cols, &o.cs) {
		return false
	}
	if segPruned(c.prunes, c.prAt, &o.cs) {
		c.skipped.Add(1)
		return false
	}
	o.vecs = segVecs(&o.cs, c.cols, o.vecs, c.width)
	o.n, o.sel = o.cs.N, o.cs.Sel
	if c.filter == nil {
		return true
	}
	b.cols, b.n, b.sel = o.vecs, o.cs.N, o.cs.Sel
	if o.selBuf == nil {
		// Non-nil even when nothing survives: a nil selection means "all".
		o.selBuf = make([]int32, 0, storage.SegmentSize)
	}
	sel, bad, err := c.filter.refine(b, o.selBuf[:0])
	o.selBuf, o.sel = sel, sel
	if err != nil {
		o.err = err
		o.n = int(bad) / c.size * c.size
		for len(o.sel) > 0 && int(o.sel[len(o.sel)-1]) >= o.n {
			o.sel = o.sel[:len(o.sel)-1]
		}
	}
	return true
}

// segWorker is one worker's per-segment job and its private scratch.
type segWorker interface {
	segment(seg int, o *segOut)
	close()
}

// morselRun is one execution's worker coordination: the result channel,
// the in-flight budget (free segOut buffers), and the done signal.
type morselRun struct {
	results chan *segOut
	tokens  chan *segOut
	done    chan struct{}
	once    sync.Once
	wg      sync.WaitGroup
}

func (r *morselRun) stop() { r.once.Do(func() { close(r.done) }) }

type parallelBatchScan struct {
	cfg    *scanCfg
	degree int
	nSeg   int

	run     *morselRun
	pending []*segOut
	nextSeg int
	cur     *segOut
	win     segWindows
	started bool
	done    bool
}

// NewParallelBatchScan is the parallel counterpart of NewBatchColScan: the
// same column list, segment skipping and batches (windows of up to size
// slots, aliasing the heap's immutable column runs, in row-ID order), with
// the fused predicate pred — WHERE and WITH QUALITY conjuncts over the
// table's schema, nil for none — evaluated inside degree workers. Each
// worker claims a segment, reads only the requested columns, skips it if
// a prune refutes it, and runs the predicate as a column kernel (or, when
// it does not compile to one, per live slot over a worker-private scratch
// row), producing a selection vector: no row is materialized and no cell
// copied. At most 2×degree segments are in flight. Errors surface in
// stream order, exactly once.
//
// An aggregate above the scan can take the whole pipeline into the
// workers instead (NewBatchGroupedAggregate). Call Stop when done
// pulling; an abandoned scan's workers are released by a finalizer.
func NewParallelBatchScan(t *storage.Table, degree, size int, cols []int, prunes []SegPrune, pred Expr, ctx *EvalContext, compiled bool) (BatchIterator, error) {
	if size < 1 {
		size = DefaultBatchSize
	}
	need, prAt := scanColumns(cols, prunes)
	cfg := &scanCfg{t: t, size: size, cols: need, width: len(t.Schema().Attrs), prunes: prunes, prAt: prAt}
	if pred != nil {
		f, err := newBatchFilter(pred, t.Schema(), ctx, compiled)
		if err != nil {
			return nil, err
		}
		cfg.filter = f
	}
	nSeg := t.Segments()
	return &parallelBatchScan{cfg: cfg, degree: max(1, min(degree, nSeg)), nSeg: nSeg}, nil
}

func (s *parallelBatchScan) Schema() *schema.Schema { return s.cfg.t.Schema() }

func (s *parallelBatchScan) SizeHint() int {
	if s.cfg.filter != nil {
		return -1 // the fused predicate's selectivity is unknown
	}
	return s.cfg.t.Len()
}

// ExtraStats reports worker occupancy — how many segments each worker
// claimed — and how many segments min/max statistics skipped, for EXPLAIN
// ANALYZE. An even spread means the claim loop kept every worker busy.
func (s *parallelBatchScan) ExtraStats() string {
	if s.cfg.workerSegs == nil {
		return fmt.Sprintf("workers=%d segments=unstarted", s.degree)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "workers=%d segments=[", s.degree)
	for w := range s.cfg.workerSegs {
		if w > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%d", s.cfg.workerSegs[w].Load())
	}
	fmt.Fprintf(&b, "] skipped=%d", s.cfg.skipped.Load())
	return b.String()
}

// launch starts degree workers, each running the job newWorker builds for
// it. Segments are claimed by atomic counter, so fast workers take more.
// A worker first takes a free segOut from the budget of 2×degree: the
// consumer returns each one after using it, so a slow consumer holds
// resident memory to O(degree) segments. No deadlock is possible:
// segments are claimed and consumed in ascending order, so the lowest
// unconsumed segment is always either delivered or being processed by a
// worker that already holds its buffer. A worker that claims a segment
// always delivers it, so the consumer never waits on a segment that was
// claimed and dropped; after a failure workers stop claiming. Workers
// capture the run and scanCfg, never s, so an abandoned scan stays
// collectable and its finalizer releases them.
func (s *parallelBatchScan) launch(newWorker func() segWorker) {
	s.started = true
	nSeg, degree := s.nSeg, s.degree
	// tokens is a semaphore of free result buffers; results can then hold
	// every buffer at once, so a worker's send never blocks.
	budget := max(1, min(2*degree, nSeg))
	run := &morselRun{
		results: make(chan *segOut, budget),
		tokens:  make(chan *segOut, budget),
		done:    make(chan struct{}),
	}
	for i := 0; i < budget; i++ {
		run.tokens <- &segOut{}
	}
	s.run = run
	s.pending = make([]*segOut, nSeg)
	s.cfg.workerSegs = make([]atomic.Int64, degree)
	var next atomic.Int64
	var failed atomic.Bool
	for w := 0; w < degree; w++ {
		mySegs := &s.cfg.workerSegs[w]
		job := newWorker()
		run.wg.Add(1)
		go func() {
			defer run.wg.Done()
			defer job.close()
			for {
				var o *segOut
				select {
				case o = <-run.tokens:
				case <-run.done:
					return
				}
				if failed.Load() {
					return
				}
				seg := int(next.Add(1)) - 1
				if seg >= nSeg {
					return
				}
				mySegs.Add(1)
				o.seg = seg
				job.segment(seg, o)
				if o.err != nil {
					failed.Store(true)
				}
				// At most budget segOuts exist, so this never blocks.
				run.results <- o
			}
		}()
	}
	runtime.SetFinalizer(s, (*parallelBatchScan).release)
}

// release lets the workers go without waiting for them (finalizer path).
func (s *parallelBatchScan) release() {
	if s.run != nil {
		s.run.stop()
	}
}

// Stop implements Stopper: it releases the workers and waits for them to
// finish — at most one segment's work each — so no worker reads the table
// or writes a result after the call.
func (s *parallelBatchScan) Stop() {
	s.done = true
	if s.run != nil {
		s.run.stop()
		s.run.wg.Wait()
	}
	s.cur, s.pending, s.win = nil, nil, segWindows{}
}

// nextOut returns the next segment's result in segment order, or nil once
// every segment is consumed or the scan was stopped.
func (s *parallelBatchScan) nextOut() *segOut {
	for s.nextSeg < s.nSeg {
		if o := s.pending[s.nextSeg]; o != nil {
			s.pending[s.nextSeg] = nil
			s.nextSeg++
			return o
		}
		select {
		case o := <-s.run.results:
			s.pending[o.seg] = o
		case <-s.run.done:
			return nil
		}
	}
	return nil
}

// recycle returns a consumed segOut to the in-flight budget; never blocks,
// since releases never exceed acquisitions.
func (s *parallelBatchScan) recycle(o *segOut) { s.run.tokens <- o }

func (s *parallelBatchScan) NextBatch(b *Batch) (bool, error) {
	if s.done {
		return false, nil
	}
	if !s.started {
		cfg := s.cfg
		s.launch(func() segWorker { return &scanWorker{cfg: cfg} })
	}
	for {
		if s.cur != nil {
			if s.win.next(b, s.cfg.size) {
				return true, nil
			}
			err := s.cur.err
			s.recycle(s.cur)
			s.cur = nil
			if err != nil {
				s.Stop()
				return false, err
			}
		}
		o := s.nextOut()
		if o == nil {
			s.Stop()
			return false, nil
		}
		s.cur = o
		s.win.load(o.vecs, o.n, o.sel)
	}
}

// scanWorker is the ordered-merge job: scan and filter only; the consumer
// windows the result into batches.
type scanWorker struct {
	cfg *scanCfg
	b   Batch // scratch for the filter's scalar fallback
}

func (w *scanWorker) segment(seg int, o *segOut) { w.cfg.scan(seg, o, &w.b) }

func (w *scanWorker) close() {}

// ---- Pipelines fused into the workers ----

// fusedStage is one operator of a pipeline run per segment inside the
// workers: a filter or a join probe, with the EXPLAIN ANALYZE actuals of
// the operator it stands in for (nil when not instrumented).
type fusedStage struct {
	filter *batchFilter
	probe  *joinProbe
	emit   []int // a probe's output columns the stages after it read
	st     *OpStats
}

// fusedPipeline is a batch chain that can run per segment inside a
// parallel scan's workers: the scan, then stages in data-flow order.
type fusedPipeline struct {
	src    *parallelBatchScan
	srcSt  *OpStats
	stages []fusedStage
}

// fuseChain recognizes a batch chain the workers can run end to end: an
// unstarted parallel scan under any number of renames, filters and
// hash-join probes (probe side only: the build is already complete and
// read-only), looking through EXPLAIN ANALYZE instrument wrappers. Any
// other operator in the chain keeps the pipeline serial above the scan.
func fuseChain(in BatchIterator) (*fusedPipeline, bool) {
	var rev []fusedStage // stages from the top of the chain down
	var st *OpStats      // pending instrument actuals for the next operator down
	for {
		switch v := in.(type) {
		case *instrumentBatch:
			st, in = v.st, v.in
		case *batchRename:
			in = v.in
		case *batchSelect:
			rev = append(rev, fusedStage{filter: v.f, st: st})
			st, in = nil, v.in
		case *batchHashJoin:
			if v.done || v.loaded {
				return nil, false
			}
			rev = append(rev, fusedStage{probe: v.jp, st: st})
			st, in = nil, v.left
		case *parallelBatchScan:
			if v.started || v.done {
				return nil, false
			}
			slices.Reverse(rev)
			return &fusedPipeline{src: v, srcSt: st, stages: rev}, true
		default:
			return nil, false
		}
	}
}

// stageCount is one stage's actuals within one worker: output rows and
// non-empty batches, and the stage's own (exclusive) time.
type stageCount struct {
	rows, batches, nanos int64
}

// foldWorker is the fused-aggregate job: scan and filter a segment, push
// its batch windows through the stages, and fold the survivors into a
// fresh partial for the segment.
type foldWorker struct {
	cfg    *scanCfg
	stages []fusedStage
	agg    *batchAgg
	timed  bool
	b      Batch      // segment scratch
	win    segWindows // the segment's batch windows
	wb     *Batch     // current window
	chunks []*Batch   // per probe stage: joined output
	curs   []probeCursor
	part   *aggTable
	counts []stageCount // [0] the scan, [1+i] stage i, [last] the fold
}

// newFoldWorker builds one worker's job. It references the shared
// scanCfg and stages, never the scan (see launch).
func newFoldWorker(cfg *scanCfg, stages []fusedStage, a *batchAgg, timed bool) *foldWorker {
	w := &foldWorker{cfg: cfg, stages: stages, agg: a, timed: timed,
		wb:     getBatch(cfg.size),
		chunks: make([]*Batch, len(stages)),
		curs:   make([]probeCursor, len(stages)),
		counts: make([]stageCount, len(stages)+2),
	}
	for i := range stages {
		if stages[i].probe != nil {
			w.chunks[i] = getBatch(cfg.size)
		}
	}
	return w
}

func (w *foldWorker) close() {
	putBatch(w.wb)
	for _, c := range w.chunks {
		putBatch(c)
	}
}

// since returns the nanoseconds elapsed from t0 when timing.
func (w *foldWorker) since(t0 time.Time) int64 {
	if !w.timed {
		return 0
	}
	return int64(time.Since(t0))
}

func (w *foldWorker) now() time.Time {
	if !w.timed {
		return time.Time{}
	}
	return time.Now()
}

func (w *foldWorker) segment(seg int, o *segOut) {
	t0 := w.now()
	ok := w.cfg.scan(seg, o, &w.b)
	w.counts[0].nanos += w.since(t0)
	if !ok {
		return
	}
	srcErr := o.err
	w.part = w.agg.newTable()
	o.part = w.part
	w.win.load(o.vecs, o.n, o.sel)
	for w.win.next(w.wb, w.cfg.size) {
		w.counts[0].rows += int64(w.wb.Len())
		w.counts[0].batches++
		if err := w.push(w.wb, 0); err != nil {
			o.err = err
			return
		}
	}
	o.err = srcErr
}

// push runs batch b through stages i.. and folds what survives.
func (w *foldWorker) push(b *Batch, i int) error {
	for ; i < len(w.stages); i++ {
		stage := &w.stages[i]
		c := &w.counts[1+i]
		if stage.probe != nil {
			return w.probe(b, i)
		}
		t0 := w.now()
		sel, _, err := stage.filter.refine(b, b.selBuf[:0])
		b.selBuf = sel
		c.nanos += w.since(t0)
		if err != nil {
			return err
		}
		if len(sel) == 0 {
			return nil
		}
		b.sel = sel
		c.rows += int64(len(sel))
		c.batches++
	}
	t0 := w.now()
	err := w.agg.fold(w.part, b)
	w.counts[len(w.counts)-1].nanos += w.since(t0)
	return err
}

// probe joins b against stage i's build in output chunks of at most
// size rows, pushing each chunk on through the stages after i.
func (w *foldWorker) probe(b *Batch, i int) error {
	jp, chunk, cur := w.stages[i].probe, w.chunks[i], &w.curs[i]
	c := &w.counts[1+i]
	cur.reset()
	for {
		t0 := w.now()
		out := chunk.ownedCols(jp.lw + jp.rw)
		cnt, full, err := jp.fill(cur, b, out, w.stages[i].emit, 0, w.cfg.size)
		c.nanos += w.since(t0)
		if err != nil {
			return err
		}
		if cnt > 0 {
			chunk.setOwned(out, cnt)
			c.rows += int64(cnt)
			c.batches++
			if err := w.push(chunk, i+1); err != nil {
				return err
			}
		}
		if !full {
			return nil
		}
	}
}

// fold runs the pipeline and a's per-segment partial fold inside the
// scan's workers, merging the partials in segment order; the first error
// in stream order wins. When the chain is instrumented, each fused
// operator's actuals get its exact output counts and a share of the
// run's wall time: inclusive, like every other operator's, apportioned
// by the workers' measured time in it and the operators beneath it.
func (fp *fusedPipeline) fold(a *batchAgg) (*aggTable, error) {
	s := fp.src
	timed := fp.srcSt != nil
	for _, st := range fp.stages {
		timed = timed || st.st != nil
	}
	fp.prune(a)
	var workers []*foldWorker
	t0 := time.Now()
	s.launch(func() segWorker {
		w := newFoldWorker(s.cfg, fp.stages, a, timed)
		workers = append(workers, w)
		return w
	})
	acc := a.newTable()
	var err error
	for err == nil {
		o := s.nextOut()
		if o == nil {
			break
		}
		if o.part != nil {
			a.merge(acc, o.part)
		}
		err = o.err
		o.part = nil
		s.recycle(o)
	}
	s.Stop() // waits for the workers: their counts are final below
	if err != nil {
		return nil, err
	}
	if timed {
		fp.report(workers, time.Since(t0))
	}
	return acc, nil
}

// prune sets each probe stage's emit columns: what the filters after it
// and the fold read. A later probe reads its whole input, so a probe
// followed by another emits every column.
func (fp *fusedPipeline) prune(a *batchAgg) {
	need := a.reads()
	for i := len(fp.stages) - 1; i >= 0; i-- {
		st := &fp.stages[i]
		if st.filter != nil {
			need = append(need, st.filter.refs...)
			continue
		}
		seen := make(map[int]bool, len(need))
		st.emit = st.emit[:0]
		for _, c := range need {
			if !seen[c] {
				seen[c] = true
				st.emit = append(st.emit, c)
			}
		}
		need = allCols(st.probe.lw)
	}
}

// report writes the fused operators' actuals (see fold).
func (fp *fusedPipeline) report(workers []*foldWorker, wall time.Duration) {
	sum := make([]stageCount, len(fp.stages)+2)
	var total int64
	for _, w := range workers {
		for i, c := range w.counts {
			sum[i].rows += c.rows
			sum[i].batches += c.batches
			sum[i].nanos += c.nanos
			total += c.nanos
		}
	}
	var cum int64
	record := func(st *OpStats, c stageCount) {
		cum += c.nanos
		if st == nil {
			return
		}
		st.Rows += c.rows
		st.Batches += c.batches
		if total > 0 {
			st.Nanos += int64(float64(wall) * float64(cum) / float64(total))
		}
	}
	record(fp.srcSt, sum[0])
	for i := range fp.stages {
		record(fp.stages[i].st, sum[1+i])
	}
}
