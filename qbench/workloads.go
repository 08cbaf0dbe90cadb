package main

import (
	"fmt"
	"os"
	"runtime"
	"sync"
	"time"

	"repro/internal/metrics"
	"repro/internal/qql"
	"repro/internal/server/client"
	"repro/internal/storage/wal"
)

const (
	// scanCyclesPerSecond sizes quality_scan: cycles of the five shapes per
	// second of --seconds, on a 2-core host.
	scanCyclesPerSecond = 5
	// offeredReads is point_mixed's open-loop read rate, reads per second.
	offeredReads = 2000
	// updatesPerSecond sizes point_mixed's writer.
	updatesPerSecond = 22
	// replaySample bounds how many of a workload's operations the traced
	// run replays in-process.
	replaySample = 20
)

// window measures the layers over one timed phase: plan-cache tiers, the
// Go runtime, the WAL and the server's per-kind statement histogram.
type window struct {
	t0    time.Time
	cache qql.CacheStats
	mem   runtime.MemStats
	wal   wal.Stats
	stmt  metrics.HistSnapshot
	kind  string
}

func (r *run) openWindow(kind string) *window {
	w := &window{kind: kind, cache: r.node.srv.Cache().Stats(), wal: r.node.log.Stats(),
		stmt: r.stmtHist(kind).Snapshot()}
	runtime.ReadMemStats(&w.mem)
	w.t0 = time.Now()
	return w
}

func (r *run) stmtHist(kind string) *metrics.Histogram {
	return r.node.srv.Metrics().Histogram("qqld_statement_seconds", metrics.L("kind", kind))
}

// close turns the window into per-layer metrics; ops is the number of
// client operations in it and lats their client-side latencies in ms.
func (w *window) close(r *run, ops int, lats []float64) {
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	c := r.node.srv.Cache().Stats()
	ratio := func(h, m uint64) float64 {
		if h+m == 0 {
			return 0
		}
		return float64(h) / float64(h+m)
	}
	r.layer["qql.ast_hit_ratio"] = ratio(c.Hits-w.cache.Hits, c.Misses-w.cache.Misses)
	r.layer["qql.plan_hit_ratio"] = ratio(c.PlanHits-w.cache.PlanHits, c.PlanMisses-w.cache.PlanMisses)
	r.layer["go.alloc_kb_per_op"] = float64(mem.TotalAlloc-w.mem.TotalAlloc) / 1024 / float64(max(ops, 1))
	r.layer["go.gc_cycles"] = float64(mem.NumGC - w.mem.NumGC)
	fmt.Fprintf(os.Stderr, "qbench: timed phase: %d ops in %.3fs, %d GC cycles, %.0f MB allocated\n",
		ops, time.Since(w.t0).Seconds(), mem.NumGC-w.mem.NumGC, float64(mem.TotalAlloc-w.mem.TotalAlloc)/(1<<20))
	r.walLayer(w.wal, r.node.log.Stats())
	w.serverSplit(r, lats)
}

// walLayer reports the log's work between two snapshots.
func (r *run) walLayer(before, after wal.Stats) {
	appends := after.Appends - before.Appends
	commits := after.Commits - before.Commits
	r.layer["wal.appends"] = float64(appends)
	r.layer["wal.commits"] = float64(commits)
	r.layer["wal.group_max"] = float64(after.GroupMax)
	r.layer["wal.fsyncs_per_commit"] = 0
	if commits > 0 {
		r.layer["wal.fsyncs_per_commit"] = float64(after.Fsyncs-before.Fsyncs) / float64(commits)
	}
	r.layer["wal.bytes_per_row"] = 0
	if appends > 0 {
		r.layer["wal.bytes_per_row"] = float64(after.Bytes-before.Bytes) / float64(appends)
	}
}

// serverSplit splits the client latency of the window's statements into
// the server's own statement time and everything outside it.
func (w *window) serverSplit(r *run, lats []float64) {
	after := r.stmtHist(w.kind).Snapshot()
	d := metrics.HistSnapshot{Count: after.Count - w.stmt.Count, Max: after.Max}
	for i := range d.Buckets {
		d.Buckets[i] = after.Buckets[i] - w.stmt.Buckets[i]
	}
	p50 := ms(d.Quantile(0.5))
	r.layer["server.stmt_p50_ms"] = p50
	r.layer["server.outside_ms_p50"] = median(lats) - p50
}

// readMetrics fills the read end-to-end metrics from n reads sent as
// requests with the given latencies.
func (r *run) readMetrics(n int, lats []float64, elapsed time.Duration) {
	r.e2e["read_qps"] = float64(n) / elapsed.Seconds()
	r.e2e["read_p50_ms"] = quantile(lats, 0.50)
	r.e2e["read_p90_ms"] = quantile(lats, 0.90)
}

// writeMetrics fills the write end-to-end metrics: acknowledged rows per
// second and per-commit latencies.
func (r *run) writeMetrics(rows int, elapsed time.Duration, commits []float64) {
	r.e2e["write_rows_s"] = float64(rows) / elapsed.Seconds()
	r.e2e["commit_p50_ms"] = quantile(commits, 0.50)
	r.e2e["commit_p90_ms"] = quantile(commits, 0.90)
}

// setupWriteMetrics reports the write metrics of a workload whose timed
// phase does not write: the base loads of its set-ups, whose rows/s is the
// median over the set-ups.
func (r *run) setupWriteMetrics() {
	per := len(r.setupFrames) / setups
	var rates, lats []float64
	for i := 0; i < setups; i++ {
		var busy time.Duration
		rows := 0
		for _, f := range r.setupFrames[i*per : (i+1)*per] {
			busy += f.lat
			rows += f.acked
			lats = append(lats, ms(f.lat))
		}
		// Two connections each keep one frame in flight, so the load's
		// wall time is half the summed frame latency.
		rates = append(rates, float64(rows)/(busy.Seconds()/ingestConns))
	}
	r.e2e["write_rows_s"] = median(rates)
	r.e2e["commit_p50_ms"] = quantile(lats, 0.50)
	r.e2e["commit_p90_ms"] = quantile(lats, 0.90)
}

// qualityScan: one connection in a closed loop over the five quality_scan
// shapes, each answer compared with the model.
func qualityScan(r *run) error {
	cl, err := client.Dial(r.node.addr())
	if err != nil {
		return err
	}
	defer cl.Close()
	want := map[string][]string{}
	for _, sh := range scanShapes {
		want[sh.Name] = r.model.expect(sh.Name)
		r.readSQL = append(r.readSQL, sh.SQL, sh.SQL)
	}
	check := func(sh shape, resp *rowsResp) {
		r.ops++
		if resp.err != nil {
			r.fails.add("%s: %v", sh.Name, resp.err)
			return
		}
		r.counts["rows."+sh.Name] = int64(len(resp.rows))
		if got := rowStrings(resp.rows); !equal(got, want[sh.Name]) {
			r.fails.add("%s: %d rows differ from the %d expected", sh.Name, len(got), len(want[sh.Name]))
		}
	}
	// One untimed cycle fills the plan cache.
	for _, sh := range scanShapes {
		check(sh, query(cl, sh.SQL))
	}
	n := scanCyclesPerSecond * r.env.Seconds * len(scanShapes)
	lats := make([]float64, 0, n)
	runtime.GC()
	w := r.openWindow("select")
	for i := 0; i < n; i++ {
		sh := scanShapes[i%len(scanShapes)]
		t0 := time.Now()
		resp := query(cl, sh.SQL)
		t1 := time.Now()
		r.tr.root("client.query", t0, t1)
		lats = append(lats, ms(t1.Sub(t0)))
		check(sh, resp)
	}
	elapsed := time.Since(w.t0)
	w.close(r, n, lats)
	r.layer["load.gen_late_p90_ms"] = 0
	r.readMetrics(n, lats, elapsed)
	r.setupWriteMetrics()
	// The timed phase writes nothing; the log's figures are those of the
	// last set-up's base load, which the write metrics above come from.
	r.walLayer(r.loadWAL[0], r.loadWAL[1])
	return nil
}

// rowsResp is one query's answer as literal strings.
type rowsResp struct {
	rows [][]string
	err  error
}

func query(cl *client.Client, q string) *rowsResp {
	_, rows, err := cl.Query(q)
	return &rowsResp{rows: rows, err: err}
}

// pointMixed: open-loop point reads by Zipf key at offeredReads per second
// on one pipelined connection, beside a closed-loop writer of single-row
// re-tagging UPDATEs on a second connection. The run ends when the writer
// has issued all its updates.
func pointMixed(r *run) error {
	names := append([]string(nil), r.model.order[:baseRows]...)
	ups := genUpdates(rng(r.env.Seed, 3), names, updatesPerSecond*r.env.Seconds)
	keys := zipfKeys(rng(r.env.Seed, 4), names, offeredReads*r.env.Seconds)
	r.env.OfferedRate = offeredReads
	r.records += len(ups)
	for i := 0; i < replaySample; i++ {
		r.readSQL = append(r.readSQL, pointSQL(keys[i]))
	}
	// Replaying the last updates in their order leaves every key as the
	// run left it.
	for _, u := range ups[len(ups)-replaySample:] {
		r.writeSQL = append(r.writeSQL, u.SQL())
	}
	rd, err := client.Dial(r.node.addr())
	if err != nil {
		return err
	}
	defer rd.Close()
	wr, err := client.Dial(r.node.addr())
	if err != nil {
		return err
	}
	defer wr.Close()

	type pending struct {
		p        *client.Pending
		due, at  time.Time
		key      string
		sendFail error
	}
	// Sized like the client's own in-flight cap: the generator blocks in
	// DoAsync, not here, when responses fall behind.
	inflight := make(chan pending, 64)
	stop := make(chan struct{})
	var (
		wg       sync.WaitGroup
		readLats []float64
		lateness []float64
		lastRead time.Time
	)
	runtime.GC()
	w := r.openWindow("select")
	start := w.t0
	wg.Add(2)
	go func() {
		defer wg.Done()
		defer close(inflight)
		interval := time.Second / offeredReads
		for i := 0; ; i++ {
			due := start.Add(time.Duration(i) * interval)
			if d := time.Until(due); d > 0 {
				time.Sleep(d)
			}
			select {
			case <-stop:
				return
			default:
			}
			key := keys[i%len(keys)]
			p, err := rd.DoAsync(pointSQL(key))
			inflight <- pending{p: p, due: due, at: time.Now(), key: key, sendFail: err}
		}
	}()
	go func() {
		defer wg.Done()
		for pd := range inflight {
			var resp *rowsResp
			if pd.sendFail != nil {
				resp = &rowsResp{err: pd.sendFail}
			} else {
				res, err := pd.p.Wait()
				resp = &rowsResp{err: err}
				if err == nil {
					if res.Err != "" {
						resp.err = fmt.Errorf("%s", res.Err)
					}
					resp.rows = res.Rows
				}
			}
			done := time.Now()
			r.tr.root("client.read", pd.due, done)
			readLats = append(readLats, ms(done.Sub(pd.due)))
			lateness = append(lateness, ms(pd.at.Sub(pd.due)))
			lastRead = done
			if resp.err != nil || len(resp.rows) != 1 || resp.rows[0][0] != strLit(pd.key) {
				r.fails.add("point read %s: %v %v", pd.key, resp.rows, resp.err)
			}
		}
	}()
	commits := make([]float64, 0, len(ups))
	applied := 0
	for _, u := range ups {
		t0 := time.Now()
		msg, err := wr.Exec(u.SQL())
		t1 := time.Now()
		r.tr.root("client.update", t0, t1)
		commits = append(commits, ms(t1.Sub(t0)))
		r.ops++
		if err != nil || msg != "updated 1 row(s) in customer" {
			r.fails.add("update %s: %q %v", u.Key, msg, err)
			continue
		}
		r.model.apply(u)
		applied++
	}
	writeElapsed := time.Since(start)
	close(stop)
	wg.Wait()
	r.ops += len(readLats)
	w.close(r, len(readLats)+len(ups), readLats)
	r.layer["load.gen_late_p90_ms"] = quantile(lateness, 0.90)
	r.readMetrics(len(readLats), readLats, lastRead.Sub(start))
	r.writeMetrics(applied, writeElapsed, commits)
	r.counts["updates.applied"] = int64(applied)
	return quiesce(r.node.log)
}
