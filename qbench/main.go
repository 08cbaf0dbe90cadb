// Command qbench is the repository's end-to-end benchmark: one process
// hosts a default durable qqld (write-ahead log with group commit) on a
// loopback port and drives it with wire v2 clients through one of two
// workloads, checking every answer against values computed from the
// seed-generated data. See README.md in this directory.
//
// Usage (from the repository root, via run.sh, which builds it):
//
//	bash qbench/run.sh --workload quality_scan --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. With --trace 0 the metrics are
// the end-to-end metrics; with --trace 1 they are the per-layer metrics of
// a separate traced run, whose spans are written under the -dir directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the line the benchmark prints last.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

var workloads = map[string]func(*run) error{
	"quality_scan": qualityScan,
	"point_mixed":  pointMixed,
}

func main() {
	wl := flag.String("workload", "", "quality_scan or point_mixed")
	seed := flag.Int64("seed", 1, "seed of the generated data and operations")
	seconds := flag.Int("seconds", 10, "nominal length of the timed phase; sizes the fixed op list")
	trace := flag.Int("trace", 0, "1 runs the traced variant and reports per-layer metrics")
	dir := flag.String("dir", ".bench_build", "directory for data, run records and trace output")
	flag.Parse()
	body, ok := workloads[*wl]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "qbench: bad arguments (workload %q, seconds %d, trace %d)\n", *wl, *seconds, *trace)
		os.Exit(2)
	}
	r, err := newRun(*wl, *seed, *seconds, *trace == 1, *dir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "qbench: %v\n", err)
		os.Exit(1)
	}
	err = r.execute(body)
	r.cleanup()
	if err != nil {
		fmt.Fprintf(os.Stderr, "qbench: %s: %v\n", *wl, err)
		os.Exit(1)
	}
	for _, m := range r.fails.msgs {
		fmt.Fprintf(os.Stderr, "qbench: check failed: %s\n", m)
	}
	out, err := json.Marshal(r.result())
	if err != nil {
		fmt.Fprintf(os.Stderr, "qbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// env is the environment record printed with every run.
type env struct {
	Workload     string         `json:"workload"`
	Seed         int64          `json:"seed"`
	Seconds      int            `json:"seconds"`
	Cores        int            `json:"cores"`
	GOMAXPROCS   int            `json:"gomaxprocs"`
	GoVersion    string         `json:"go_version"`
	Fsync        string         `json:"fsync"`
	CkptEvery    int            `json:"checkpoint_every_records"`
	DataFS       string         `json:"data_dir_fs"`
	TableRows    map[string]int `json:"table_rows"`
	OfferedRate  float64        `json:"offered_reads_per_s,omitempty"`
	ServerConfig string         `json:"server_config"`
}

func (r *run) printEnv() {
	r.env.Cores = runtime.NumCPU()
	r.env.GOMAXPROCS = runtime.GOMAXPROCS(0)
	r.env.GoVersion = runtime.Version()
	r.env.CkptEvery = ckptEvery
	r.env.DataFS = fsType(r.work)
	r.env.ServerConfig = "default server.Config; Addr 127.0.0.1:0, WAL wal.Open(dir, wal.Options{}), Now " + epoch.Format("2006-01-02T15:04:05Z")
	raw, _ := json.Marshal(r.env) // plain struct of strings and numbers
	fmt.Fprintf(os.Stderr, "qbench: env %s\n", raw)
}

// recordPath names the run record of this workload, seed and length.
func (r *run) recordPath(kind string) string {
	return filepath.Join(r.dir, "records", fmt.Sprintf("%s-seed%d-s%d.%s.json", r.env.Workload, r.env.Seed, r.env.Seconds, kind))
}
