package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/server/client"
	"repro/internal/storage/wal"
)

const (
	// setups is how many times a run builds its starting state; setup_s is
	// their median and the last one is kept for the timed phase.
	setups = 3
	// reopens is how many times the restart tail recovers the data dir;
	// recovery_s is their median.
	reopens = 5
	// ingestConns and frameStmts shape every batched load: two connections,
	// each with one frame of frameStmts INSERTs in flight.
	ingestConns = 2
	frameStmts  = 200
)

// e2eUnits are the end-to-end metrics every workload reports.
var e2eUnits = map[string]string{
	"setup_s":            "s",
	"read_qps":           "1/s",
	"read_p50_ms":        "ms",
	"read_p90_ms":        "ms",
	"write_rows_s":       "rows/s",
	"commit_p50_ms":      "ms",
	"commit_p90_ms":      "ms",
	"recovery_s":         "s",
	"disk_bytes_per_row": "B/row",
	"live_heap_mb":       "MB",
}

// run is one benchmark process: generated data, the live node, the model
// of what the table must hold, and everything measured.
type run struct {
	env   env
	trace bool
	dir   string // build directory: records and traces
	work  string // this run's data directories

	base   []customer
	model  *table
	node   *node
	tr     *tracer
	fails  failures
	ops    int // client operations attempted
	e2e    map[string]float64
	layer  map[string]float64
	counts map[string]int64 // exact counts that must repeat for a seed

	// records is the WAL record count the final node holds; the workload
	// adds its own appends.
	records int
	// setupFrames are the base-load frames of every setup; workloads that
	// do not write report their write metrics from them.
	setupFrames []batchResult
	// readSQL and writeSQL sample the workload's own operations for the
	// in-process replay.
	readSQL  []string
	writeSQL []string
	// loadWAL are the log's counters before and after the last set-up's
	// base load.
	loadWAL [2]wal.Stats
}

func newRun(wl string, seed int64, seconds int, trace bool, dir string) (*run, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(filepath.Join(abs, "records"), 0o755); err != nil {
		return nil, err
	}
	work, err := os.MkdirTemp(abs, "run-")
	if err != nil {
		return nil, err
	}
	r := &run{
		env:    env{Workload: wl, Seed: seed, Seconds: seconds, Fsync: wal.FsyncGroup.String(), TableRows: map[string]int{}},
		trace:  trace,
		dir:    abs,
		work:   work,
		e2e:    map[string]float64{},
		layer:  map[string]float64{},
		counts: map[string]int64{},
	}
	if trace {
		r.tr = newTracer()
	}
	return r, nil
}

// cleanup stops the node if one is still up and removes the data dirs.
func (r *run) cleanup() {
	if r.node != nil {
		if err := r.node.stop(); err != nil {
			fmt.Fprintf(os.Stderr, "qbench: stop: %v\n", err)
		}
		r.node = nil
	}
	if err := os.RemoveAll(r.work); err != nil {
		fmt.Fprintf(os.Stderr, "qbench: cleanup: %v\n", err)
	}
}

// execute is the whole run: set-up, the workload's timed phase, the restart
// tail, and (traced) the in-process replay.
func (r *run) execute(body func(*run) error) error {
	r.base = genCustomers(rng(r.env.Seed, 1), 0, baseRows)
	r.model = newTable(r.base)
	if err := r.setupAll(); err != nil {
		return err
	}
	r.env.TableRows["customer"] = baseRows
	r.env.TableRows["emp_dim"] = maxEmp / dimStep
	if err := body(r); err != nil {
		return err
	}
	r.e2e["live_heap_mb"] = liveHeapMB()
	r.noteWAL()
	if err := r.restartTail(); err != nil {
		return err
	}
	if err := r.probes(); err != nil {
		return err
	}
	r.printEnv()
	r.guard()
	return nil
}

// setupAll builds the starting state setups times — empty server, base
// tables loaded over the wire, quiesced — and keeps the last.
func (r *run) setupAll() error {
	stmts := append([]string(nil), ddl...)
	for _, c := range r.base {
		stmts = append(stmts, insertSQL(c))
	}
	dims := dimSQL()
	r.records = len(stmts) + len(dims)
	wantCkpt, err := expectedCheckpoints(r.records)
	if err != nil {
		return fmt.Errorf("setup: %w", err)
	}
	var times []float64
	for i := 0; i < setups; i++ {
		if r.node != nil {
			if err := r.node.stop(); err != nil {
				return err
			}
			if err := os.RemoveAll(r.node.dir); err != nil {
				return err
			}
			r.node = nil
		}
		flushFS()
		runtime.GC()
		t0 := time.Now()
		n, err := boot(filepath.Join(r.work, fmt.Sprintf("setup-%d", i)))
		if err != nil {
			return err
		}
		r.node = n
		if err := r.exec(ddl); err != nil {
			return err
		}
		r.loadWAL[0] = n.log.Stats()
		frames, err := ingest(n.addr(), append(stmts[len(ddl):], dims...), ingestConns, frameStmts)
		if err != nil {
			return fmt.Errorf("setup load: %w", err)
		}
		if err := quiesce(n.log); err != nil {
			return err
		}
		r.loadWAL[1] = n.log.Stats()
		t1 := time.Now()
		times = append(times, t1.Sub(t0).Seconds())
		r.tr.root("setup", t0, t1)
		r.setupFrames = append(r.setupFrames, frames...)
		r.checkFrames(frames, len(stmts)-len(ddl)+len(dims))
		st := n.log.Stats()
		if st.Appends != uint64(r.records) || st.Checkpoints != uint64(wantCkpt) || st.CkptErrs != 0 {
			r.fails.add("setup %d: wal appends %d checkpoints %d errors %d, want %d, %d, 0",
				i, st.Appends, st.Checkpoints, st.CkptErrs, r.records, wantCkpt)
		}
	}
	flushFS()
	r.e2e["setup_s"] = median(times)
	r.samples("setup_s", times)
	return r.checkCounts("after setup")
}

// exec runs statements one request each on a fresh connection; any error
// fails the run.
func (r *run) exec(stmts []string) error {
	cl, err := client.Dial(r.node.addr())
	if err != nil {
		return err
	}
	defer cl.Close()
	for _, q := range stmts {
		r.ops++
		if _, err := cl.Exec(q); err != nil {
			return fmt.Errorf("%s: %w", q, err)
		}
	}
	return nil
}

// checkFrames counts the frames of a load as operations and fails the ones
// not fully acknowledged.
func (r *run) checkFrames(frames []batchResult, want int) {
	acked := 0
	for i, f := range frames {
		r.ops++
		acked += f.acked
		if f.bad > 0 {
			r.fails.add("frame %d: %d statements not acknowledged", i, f.bad)
		}
	}
	if acked != want {
		r.fails.add("load acknowledged %d rows, want %d", acked, want)
	}
}

// checkCounts compares COUNT(*) and the per-@source counts over the wire
// with the model.
func (r *run) checkCounts(when string) error {
	cl, err := client.Dial(r.node.addr())
	if err != nil {
		return err
	}
	defer cl.Close()
	return r.checkCountsVia(cl, when)
}

func (r *run) checkCountsVia(cl *client.Client, when string) error {
	r.ops += 2
	n, err := cl.QueryInt(`SELECT COUNT(*) AS n FROM customer`)
	if err != nil {
		return fmt.Errorf("%s: count: %w", when, err)
	}
	if n != int64(r.model.count()) {
		r.fails.add("%s: COUNT(*) = %d, want %d", when, n, r.model.count())
	}
	_, rows, err := cl.Query(sourceGroupsSQL)
	if err != nil {
		return fmt.Errorf("%s: source counts: %w", when, err)
	}
	if got, want := rowStrings(rows), r.model.expect("source_groups"); !equal(got, want) {
		r.fails.add("%s: per-source counts %v, want %v", when, got, want)
	}
	return nil
}

func equal(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// noteWAL records the final node's log counters after the timed phase:
// the exact counts for the guard and the per-layer totals.
func (r *run) noteWAL() {
	st := r.node.log.Stats()
	r.counts["wal.appends"] = int64(st.Appends)
	r.counts["wal.checkpoints"] = int64(st.Checkpoints)
	r.layer["wal.checkpoints"] = float64(st.Checkpoints)
	r.layer["wal.ckpt_errs"] = float64(st.CkptErrs)
	if st.CkptErrs != 0 {
		r.fails.add("wal: %d checkpoint errors", st.CkptErrs)
	}
	want, err := expectedCheckpoints(r.records)
	if err != nil {
		r.fails.add("wal: %v", err)
	} else if st.Appends != uint64(r.records) || st.Checkpoints != uint64(want) {
		r.fails.add("wal: appends %d checkpoints %d, want %d and %d", st.Appends, st.Checkpoints, r.records, want)
	}
	srv := r.node.srv.Stats()
	r.layer["server.errors"] = float64(srv.Errors)
	r.layer["server.batches"] = float64(srv.Batches)
	if srv.Errors != 0 {
		r.fails.add("server: %d statement errors", srv.Errors)
	}
}

// restartTail closes the node cleanly, measures the data dir, and reopens
// it reopens times: wal.Open + Listen + the first COUNT(*) answered over a
// new connection. Every reopening must hold exactly what the model holds.
// The last reopened node stays up for the probes.
func (r *run) restartTail() error {
	if err := r.checkCounts("before shutdown"); err != nil {
		return err
	}
	dir := r.node.dir
	t0 := time.Now()
	if err := r.node.stop(); err != nil {
		return err
	}
	r.node = nil
	r.tr.root("shutdown", t0, time.Now())
	size, err := dirBytes(dir)
	if err != nil {
		return err
	}
	flushFS()
	live := r.model.count() + maxEmp/dimStep
	r.e2e["disk_bytes_per_row"] = float64(size) / float64(live)
	var recov, walRecov, allocMB []float64
	for i := 0; i < reopens; i++ {
		if r.node != nil {
			if err := r.node.stop(); err != nil {
				return err
			}
			r.node = nil
		}
		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		n, err := boot(dir)
		if err != nil {
			return fmt.Errorf("reopen %d: %w", i, err)
		}
		t1 := time.Now()
		r.node = n
		cl, err := client.Dial(n.addr())
		if err != nil {
			return err
		}
		r.ops++
		cnt, err := cl.QueryInt(`SELECT COUNT(*) AS n FROM customer`)
		t2 := time.Now()
		if err != nil {
			cl.Close()
			return fmt.Errorf("reopen %d: %w", i, err)
		}
		runtime.ReadMemStats(&m1)
		recov = append(recov, t2.Sub(t0).Seconds())
		rs := n.log.RecoveryStats()
		walRecov = append(walRecov, ms(rs.Duration))
		allocMB = append(allocMB, float64(m1.TotalAlloc-m0.TotalAlloc)/(1<<20))
		root := r.tr.root("restart", t0, t2)
		r.tr.child(root, "wal.open", t0, t0.Add(rs.Duration))
		r.tr.child(root, "server.boot", t0.Add(rs.Duration), t1)
		r.tr.child(root, "client.count", t1, t2)
		if cnt != int64(r.model.count()) {
			r.fails.add("reopen %d: COUNT(*) = %d, want %d", i, cnt, r.model.count())
		}
		err = r.checkCountsVia(cl, fmt.Sprintf("reopen %d", i))
		cl.Close()
		if err != nil {
			return err
		}
	}
	r.e2e["recovery_s"] = median(recov)
	r.samples("recovery_s", recov)
	r.layer["wal.recovery_ms"] = median(walRecov)
	r.layer["wal.recovery_alloc_mb"] = median(allocMB)
	r.layer["wal.replayed"] = float64(r.node.log.RecoveryStats().Replayed)
	return nil
}

// samples prints the repetitions behind a median, so their spread within
// a run can be told apart from the spread between runs.
func (r *run) samples(name string, xs []float64) {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = strconv.FormatFloat(x, 'f', 4, 64)
	}
	fmt.Fprintf(os.Stderr, "qbench: %s samples (%d): %s\n", name, len(xs), strings.Join(parts, " "))
}

// guard compares this run's exact counts with the first run recorded for
// the same workload, seed, length and binary; any difference fails the run.
func (r *run) guard() {
	path := r.recordPath("counts")
	id := binaryID()
	type record struct {
		Binary string           `json:"binary"`
		Counts map[string]int64 `json:"counts"`
	}
	var prev record
	if raw, err := os.ReadFile(path); err == nil && json.Unmarshal(raw, &prev) == nil && prev.Binary == id {
		for k, v := range r.counts {
			if pv, ok := prev.Counts[k]; ok && pv != v {
				r.fails.add("exact count %s = %d, an earlier run of this seed had %d", k, v, pv)
			}
		}
		return
	}
	raw, err := json.Marshal(record{Binary: id, Counts: r.counts})
	if err == nil {
		err = os.WriteFile(path, raw, 0o644)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "qbench: record counts: %v\n", err)
	}
}

// result assembles the printed line.
func (r *run) result() result {
	out := result{Attempted: r.ops, Failed: r.fails.count(), Metrics: map[string]metric{}}
	if r.trace {
		for k, v := range r.layer {
			out.Metrics[k] = metric{Value: v, Unit: layerUnit(k)}
		}
	} else {
		for k, u := range e2eUnits {
			out.Metrics[k] = metric{Value: r.e2e[k], Unit: u}
		}
	}
	out.Correct = out.Failed == 0
	for k := range e2eUnits {
		if v, ok := r.e2e[k]; !ok || !(v > 0) {
			out.Correct = false
			fmt.Fprintf(os.Stderr, "qbench: end-to-end metric %s not measured (%v)\n", k, v)
		}
	}
	return out
}

// layerUnit is the unit of a per-layer metric, read off its name.
func layerUnit(name string) string {
	for _, u := range []struct{ suffix, unit string }{
		{"_bytes_per_op", "B/op"}, {"_us_per_op", "us/op"}, {"_kb_per_op", "KB/op"},
		{"bytes_per_row", "B/row"}, {"_per_commit", "1/commit"}, {"_per_read", "1/read"},
		{"_ms", "ms"}, {"_ms_p50", "ms"}, {"_us", "us"}, {"_mb", "MB"}, {"_ratio", "ratio"},
	} {
		if strings.HasSuffix(name, u.suffix) {
			return u.unit
		}
	}
	return "count"
}

// binaryID identifies the running binary by content, so run records from
// another build are never compared.
func binaryID() string {
	exe, err := os.Executable()
	if err != nil {
		return "unknown"
	}
	raw, err := os.ReadFile(exe)
	if err != nil {
		return "unknown"
	}
	return fmt.Sprintf("%x", sha256.Sum256(raw))
}
