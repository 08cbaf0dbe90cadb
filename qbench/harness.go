package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/server"
	"repro/internal/server/client"
	"repro/internal/storage/wal"
)

// node is one qqld: a write-ahead log in a directory and the default server
// over the log's catalog, listening on a loopback port.
type node struct {
	dir  string
	log  *wal.Log
	srv  *server.Server
	done chan error
}

// boot opens the log in dir (recovering whatever is there) and starts
// serving. The only settings are the address, the log and a fixed clock.
func boot(dir string) (*node, error) {
	l, err := wal.Open(dir, wal.Options{})
	if err != nil {
		return nil, err
	}
	srv := server.New(l.Catalog(), server.Config{Addr: "127.0.0.1:0", WAL: l, Now: epoch})
	if err := srv.Listen(); err != nil {
		return nil, errors.Join(err, l.Close())
	}
	n := &node{dir: dir, log: l, srv: srv, done: make(chan error, 1)}
	go func() { n.done <- srv.Serve() }()
	return n, nil
}

func (n *node) addr() string { return n.srv.Addr().String() }

// stop shuts the server down, waits for Serve to return and closes the log
// cleanly.
func (n *node) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := n.srv.Shutdown(ctx)
	if serr := <-n.done; !errors.Is(serr, net.ErrClosed) {
		err = errors.Join(err, serr)
	}
	return errors.Join(err, n.log.Close())
}

// quiesce waits until no automatic checkpoint is due or running — the
// flusher checkpoints after the last commit has returned — then forces a
// GC, so the timed phase starts from the same state in every run.
func quiesce(l *wal.Log) error {
	deadline := time.Now().Add(90 * time.Second)
	for l.Stats().SinceCkpt >= ckptEvery {
		if time.Now().After(deadline) {
			return errors.New("quiesce: checkpoint still due after 90s")
		}
		time.Sleep(2 * time.Millisecond)
	}
	runtime.GC()
	return nil
}

// batchResult is one acknowledged batch frame.
type batchResult struct {
	start time.Time
	lat   time.Duration
	acked int
	bad   int
}

// ingest ships stmts as batch frames of frame statements over conns
// connections, each keeping one frame in flight (closed loop). Every
// statement must insert exactly one row.
func ingest(addr string, stmts []string, conns, frame int) ([]batchResult, error) {
	nFrames := (len(stmts) + frame - 1) / frame
	res := make([]batchResult, nFrames)
	var next atomic.Int64
	errs := make([]error, conns)
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			cl, err := client.Dial(addr)
			if err != nil {
				errs[w] = err
				return
			}
			defer cl.Close()
			for {
				f := int(next.Add(1) - 1)
				if f >= nFrames {
					return
				}
				qs := stmts[f*frame : min((f+1)*frame, len(stmts))]
				t0 := time.Now()
				resps, err := cl.ExecBatch(qs)
				lat := time.Since(t0)
				if err != nil {
					errs[w] = err
					return
				}
				r := batchResult{start: t0, lat: lat}
				for _, resp := range resps {
					if resp.Err == "" && strings.HasPrefix(resp.Msg, "inserted 1 row(s) into ") {
						r.acked++
					} else {
						r.bad++
					}
				}
				r.bad += len(qs) - len(resps)
				res[f] = r
			}
		}(w)
	}
	wg.Wait()
	return res, errors.Join(errs...)
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		total += info.Size()
		return nil
	})
	return total, err
}

// liveHeapMB is the heap in use after a full collection.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// quantile is the p-quantile of xs (which it sorts), interpolated
// linearly between the two nearest order statistics.
func quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	h := p * float64(len(xs)-1)
	i := int(h)
	if i+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[i] + (h-float64(i))*(xs[i+1]-xs[i])
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	ys := append([]float64(nil), xs...)
	sort.Float64s(ys)
	if len(ys)%2 == 1 {
		return ys[len(ys)/2]
	}
	return (ys[len(ys)/2-1] + ys[len(ys)/2]) / 2
}

func msList(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}

// fail records a wrong answer without stopping the run.
type failures struct {
	mu   sync.Mutex
	n    int
	msgs []string
}

func (f *failures) add(format string, args ...any) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.n++
	if len(f.msgs) < 20 {
		f.msgs = append(f.msgs, fmt.Sprintf(format, args...))
	}
}

func (f *failures) count() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.n
}
