package main

import (
	"bytes"
	"fmt"
	"os"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/qql"
	"repro/internal/relation"
	"repro/internal/server/wire"
	"repro/internal/storage"
	"repro/internal/value"
)

// probeReps is how many times each in-process probe repeats; its metric is
// the median.
const probeReps = 3

// session opens an in-process session over the node, set up as the server
// sets up its own.
func (r *run) session() *qql.Session {
	s := qql.NewSession(r.node.log.Catalog())
	s.SetPlanCache(r.node.srv.Cache())
	s.SetDurability(r.node.log)
	s.SetNow(epoch)
	return s
}

// probes runs on the last reopened node. Every run measures the tuple
// clones of the workload's sampled reads (an exact count); the traced run
// then replays the sampled operations through each layer's public entry
// points and times the layers one by one.
func (r *run) probes() error {
	sess := r.session()
	clones := storage.TupleClones()
	for _, q := range r.readSQL {
		if _, err := sess.Query(q); err != nil {
			return fmt.Errorf("clone probe: %w", err)
		}
	}
	per := float64(storage.TupleClones()-clones) / float64(len(r.readSQL))
	r.layer["storage.clones_per_read"] = per
	r.counts["storage.clones_per_read_x1000"] = int64(per * 1000)
	if !r.trace {
		return r.saveE2E()
	}
	if err := r.replay(sess); err != nil {
		return err
	}
	if err := r.shapeProbes(sess); err != nil {
		return err
	}
	if err := r.storageProbes(sess); err != nil {
		return err
	}
	return r.writeTrace(os.Stderr)
}

// replay sends the sampled operations through the wire codec, qql.Parse,
// Session.Query / Session.Exec and CommitDurable, one span each.
func (r *run) replay(sess *qql.Session) error {
	var reqBytes, respBytes, ops int
	var codec time.Duration
	var parse []float64
	timed := func(parent int, name string, f func() error) error {
		t0 := time.Now()
		err := f()
		t1 := time.Now()
		r.tr.child(parent, name, t0, t1)
		if strings.HasPrefix(name, "wire.") {
			codec += t1.Sub(t0)
		}
		return err
	}
	do := func(q string, write bool) error {
		t0 := time.Now()
		root := r.tr.root("replay", t0, t0) // finished below
		var req []byte
		if err := timed(root, "wire.encode_request", func() error { req = wire.AppendRequest(nil, q); return nil }); err != nil {
			return err
		}
		if err := timed(root, "wire.decode_request", func() error { _, err := wire.DecodeRequest(req); return err }); err != nil {
			return err
		}
		p0 := time.Now()
		if _, err := qql.Parse(q); err != nil {
			return err
		}
		parse = append(parse, float64(time.Since(p0).Microseconds()))
		r.tr.child(root, "qql.parse", p0, time.Now())
		resp := &wire.TypedResponse{N: 1}
		if write {
			sess.SetDeferCommit(true)
			var res []qql.Result
			err := timed(root, "qql.exec", func() error { var err error; res, err = sess.Exec(q); return err })
			sess.SetDeferCommit(false)
			if err != nil {
				return err
			}
			if err := timed(root, "wal.commit", sess.CommitDurable); err != nil {
				return err
			}
			resp.Msg = res[0].Msg
		} else {
			var rel *relation.Relation
			if err := timed(root, "qql.query", func() error { var err error; rel, err = sess.Query(q); return err }); err != nil {
				return err
			}
			r.countShape(sess.LastExecInfo().PlanShape)
			resp.Cols, resp.Rows = typed(rel)
		}
		var out []byte
		if err := timed(root, "wire.encode_response", func() error { out = wire.AppendTypedResponse(nil, resp); return nil }); err != nil {
			return err
		}
		if err := timed(root, "wire.decode_response", func() error { _, err := wire.DecodeTypedResponse(out); return err }); err != nil {
			return err
		}
		r.tr.finish(root, time.Now())
		reqBytes += len(req)
		respBytes += len(out)
		ops++
		return nil
	}
	for _, q := range r.readSQL {
		if err := do(q, false); err != nil {
			return fmt.Errorf("replay %q: %w", q, err)
		}
	}
	for _, q := range r.writeSQL {
		if err := do(q, true); err != nil {
			return fmt.Errorf("replay %q: %w", q, err)
		}
	}
	r.layer["wire.req_bytes_per_op"] = float64(reqBytes) / float64(ops)
	r.layer["wire.resp_bytes_per_op"] = float64(respBytes) / float64(ops)
	r.layer["wire.codec_us_per_op"] = float64(codec.Microseconds()) / float64(ops)
	r.layer["qql.parse_us"] = median(parse)

	same := r.noopUpdate()
	var execMS, commitMS []float64
	for i := 0; i < probeReps; i++ {
		sess.SetDeferCommit(true)
		t0 := time.Now()
		_, err := sess.Exec(same)
		t1 := time.Now()
		sess.SetDeferCommit(false)
		if err != nil {
			return fmt.Errorf("update probe: %w", err)
		}
		err = sess.CommitDurable()
		t2 := time.Now()
		if err != nil {
			return fmt.Errorf("update probe commit: %w", err)
		}
		root := r.tr.root("replay", t0, t2)
		r.tr.child(root, "qql.update", t0, t1)
		r.tr.child(root, "wal.commit", t1, t2)
		execMS = append(execMS, ms(t1.Sub(t0)))
		commitMS = append(commitMS, ms(t2.Sub(t1)))
	}
	r.layer["qql.update_exec_ms"] = median(execMS)
	r.layer["wal.commit_ms"] = median(commitMS)
	return r.checkCounts("after replay")
}

// noopUpdate is a write every workload can replay without changing the
// table: the first row re-tagged with the value and tags it already has.
func (r *run) noopUpdate() string {
	c := r.model.rows[r.model.order[0]]
	return update{Key: c.Name, Emp: c.Emp, Src: c.EmpSrc, At: c.EmpAt}.SQL()
}

func typed(rel *relation.Relation) ([]string, [][]value.Value) {
	cols := make([]string, len(rel.Schema.Attrs))
	for i, a := range rel.Schema.Attrs {
		cols[i] = a.Name
	}
	rows := make([][]value.Value, len(rel.Tuples))
	for i, t := range rel.Tuples {
		rows[i] = make([]value.Value, len(t.Cells))
		for j, c := range t.Cells {
			rows[i][j] = c.V
		}
	}
	return cols, rows
}

var (
	opWord    = regexp.MustCompile(`^[A-Za-z]+`)
	workersRe = regexp.MustCompile(`workers=(\d+)`)
)

// shapeProbes runs EXPLAIN ANALYZE of the five quality_scan shapes and
// turns the reports into qql phase timings, plan-shape counts and
// per-operator self times, with the operators as child spans.
func (r *run) shapeProbes(sess *qql.Session) error {
	for _, sh := range scanShapes {
		var plan, exec []float64
		self := map[string][]float64{}
		var last *qql.AnalyzeReport
		for i := 0; i < probeReps; i++ {
			t0 := time.Now()
			rep, err := sess.AnalyzeQuery(sh.SQL)
			if err != nil {
				return fmt.Errorf("analyze %s: %w", sh.Name, err)
			}
			last = rep
			plan = append(plan, ms(rep.Parse+rep.Bind+rep.Plan))
			exec = append(exec, ms(rep.Exec))
			end := t0.Add(rep.Parse + rep.Bind + rep.Plan + rep.Exec)
			root := r.tr.root("probe", t0, end)
			analyze := r.tr.child(root, "qql.analyze", t0, end)
			for j, op := range opTree(rep.Steps) {
				key := fmt.Sprintf("%d.%s", j, op.name)
				self[key] = append(self[key], ms(op.self))
			}
			r.spanOps(analyze, end, rep.Steps)
		}
		p := "qql." + sh.Name
		r.layer[p+".plan_ms"] = median(plan)
		r.layer[p+".exec_ms"] = median(exec)
		if want := len(r.model.expect(sh.Name)); want != last.Rows {
			r.fails.add("analyze %s: %d rows, want %d", sh.Name, last.Rows, want)
		}
		steps := sess.LastExecInfo().PlanShape
		r.countShape(steps)
		for j, op := range opTree(last.Steps) {
			a := "algebra." + sh.Name + "." + op.name
			r.layer[a+".self_ms"] = median(self[fmt.Sprintf("%d.%s", j, op.name)])
			r.layer[a+".rows"] = float64(op.rows)
			if op.workers > 0 {
				r.layer[a+".workers"] = float64(op.workers)
			}
		}
		fmt.Fprintf(os.Stderr, "qbench: plan %s: %s\n", sh.Name, steps)
	}
	return nil
}

// countShape counts a plan among the plan shapes it belongs to.
func (r *run) countShape(plan string) {
	for _, k := range []struct{ metric, op string }{
		{"vectorized", "Vectorized"}, {"parallel_scan", "ParallelScan"}, {"index_scan", "Index"},
	} {
		name := "qql.plan_shape." + k.metric
		if strings.Contains(plan, k.op) {
			r.layer[name]++
		} else {
			r.layer[name] += 0
		}
	}
}

// planOp is one instrumented operator of an EXPLAIN ANALYZE report.
type planOp struct {
	name    string
	rows    int64
	workers int
	incl    time.Duration
	self    time.Duration
	inputs  []int // indexes into the opTree result
}

// opTree rebuilds the operator tree from the source-to-sink step list:
// a scan is a leaf, a join consumes the two outputs before it, any other
// operator the one before it. Self time is the inclusive time minus the
// inputs' inclusive times, floored at zero: an operator that drains its
// input while the plan is built (an aggregate, a join's build side) bills
// that work to itself, not to the operator above it.
func opTree(steps []qql.AnalyzeStep) []planOp {
	var ops []planOp
	var stack []int
	for _, st := range steps {
		if !st.Instrumented {
			continue
		}
		op := planOp{name: opName(st.Desc), rows: st.Rows, incl: st.Time}
		if m := workersRe.FindStringSubmatch(st.Extra); m != nil {
			op.workers, _ = strconv.Atoi(m[1]) // the pattern admits digits only
		}
		need := 1
		switch {
		case strings.Contains(op.name, "Scan"):
			need = 0
		case strings.Contains(op.name, "Join"):
			need = 2
		}
		need = min(need, len(stack))
		op.inputs = append(op.inputs, stack[len(stack)-need:]...)
		stack = stack[:len(stack)-need]
		op.self = op.incl
		for _, in := range op.inputs {
			op.self -= ops[in].incl
		}
		op.self = max(op.self, 0)
		stack = append(stack, len(ops))
		ops = append(ops, op)
	}
	return ops
}

// spanOps records the operator tree as spans under parent, each ending at
// end and lasting its inclusive time.
func (r *run) spanOps(parent int, end time.Time, steps []qql.AnalyzeStep) {
	ops := opTree(steps)
	if len(ops) == 0 {
		return
	}
	var add func(parent, i int)
	add = func(parent, i int) {
		id := r.tr.child(parent, "algebra."+ops[i].name, end.Add(-ops[i].incl), end)
		for _, in := range ops[i].inputs {
			add(id, in)
		}
	}
	add(parent, len(ops)-1)
}

// opName is the operator's name: the first word of its EXPLAIN line.
func opName(desc string) string {
	if w := opWord.FindString(strings.TrimSpace(desc)); w != "" {
		return w
	}
	return "op"
}

// storageProbes times the storage and WAL entry points the workloads reach
// only inside the server: a whole-table SnapshotRows, the catalog encode a
// checkpoint does, loading it back, a direct checkpoint.
func (r *run) storageProbes(sess *qql.Session) error {
	cat := r.node.log.Catalog()
	tbl, ok := cat.Get("customer")
	if !ok {
		return fmt.Errorf("storage probe: no customer table")
	}
	// The catalog-wide probes run once: each costs about a second per 100k
	// rows and has no bound to meet.
	probe := func(name string, reps int, f func() error) (float64, error) {
		var xs []float64
		for i := 0; i < reps; i++ {
			runtime.GC()
			t0 := time.Now()
			if err := f(); err != nil {
				return 0, fmt.Errorf("%s: %w", name, err)
			}
			t1 := time.Now()
			r.tr.root(name, t0, t1)
			xs = append(xs, ms(t1.Sub(t0)))
		}
		return median(xs), nil
	}
	var err error
	if r.layer["storage.snapshot_rows_ms"], err = probe("storage.snapshot_rows", probeReps, func() error {
		ids, _ := tbl.SnapshotRows()
		if len(ids) != r.model.count() {
			return fmt.Errorf("%d rows, want %d", len(ids), r.model.count())
		}
		return nil
	}); err != nil {
		return err
	}
	var buf bytes.Buffer
	if r.layer["storage.save_ms"], err = probe("storage.save", 1, func() error {
		buf.Reset()
		return cat.Save(&buf)
	}); err != nil {
		return err
	}
	r.layer["storage.save_bytes_per_row"] = float64(buf.Len()) / float64(r.model.count()+maxEmp/dimStep)
	if r.layer["storage.load_ms"], err = probe("storage.load", 1, func() error {
		_, err := storage.LoadCatalog(bytes.NewReader(buf.Bytes()))
		return err
	}); err != nil {
		return err
	}
	buf = bytes.Buffer{}
	// A checkpoint needs something new to cover; the no-op update gives it
	// one record.
	before := r.node.log.Stats()
	if _, err := sess.Exec(r.noopUpdate()); err != nil {
		return fmt.Errorf("checkpoint probe: %w", err)
	}
	if r.layer["wal.checkpoint_ms"], err = probe("wal.checkpoint", 1, r.node.log.Checkpoint); err != nil {
		return err
	}
	if got := r.node.log.Stats().Checkpoints - before.Checkpoints; got != 1 {
		r.fails.add("wal: %d direct checkpoints taken, want 1", got)
	}
	return nil
}
