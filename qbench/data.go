package main

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"time"

	"repro/internal/value"
)

// epoch is the server's fixed clock (Config.Now): every AGE() answer is
// computed against it, so the benchmark can predict each one.
var epoch = time.Date(1992, 1, 1, 0, 0, 0, 0, time.UTC)

// sources are the paper's four departments and services a value can come
// from; "acct'g" keeps a quote in every generated text.
var sources = []string{"sales", "acct'g", "Nexis", "estimate"}

const (
	// baseRows is the customer table size every workload starts from. With
	// the emp_dim rows and the DDL it is 77,503 WAL records: one automatic
	// checkpoint at 50k, then 27.5k records of margin on either side of the
	// next trigger.
	baseRows = 75000
	// dimStep spaces emp_dim keys: employees 4, 8, ..., 10000, so a quarter
	// of the customers find a join partner.
	dimStep = 4
	maxEmp  = 10000
	// ckptEvery is the WAL's default automatic checkpoint interval.
	ckptEvery = 50000
	// ckptMargin is the least distance, in records, allowed between a run's
	// record count and a checkpoint trigger.
	ckptMargin = 10000
)

var ddl = []string{
	`CREATE TABLE customer (co_name string REQUIRED, address string QUALITY (creation_time time, source string), employees int QUALITY (creation_time time, source string)) KEY (co_name) STRICT`,
	`CREATE INDEX ON customer (co_name) USING HASH`,
	`CREATE TABLE emp_dim (employees int REQUIRED, band string) KEY (employees) STRICT`,
}

// customer is one generated row of the tagged customer table.
type customer struct {
	Name    string
	Addr    string
	Emp     int64
	AddrSrc string
	EmpSrc  string
	AddrAt  time.Time
	EmpAt   time.Time
}

// rng returns the generator for one purpose of one seed, so that adding a
// draw to one stream never shifts another.
func rng(seed int64, stream int64) *rand.Rand {
	return rand.New(rand.NewSource(seed*1000003 + stream))
}

var (
	nameFirst = []string{"Fruit", "Nut", "Seed", "Root", "Leaf", "Berry", "Grain", "Vine", "Palm", "Fern", "Moss", "Reed", "Pine", "Oak", "Elm", "Ash"}
	nameLast  = []string{"Co", "Corp", "Inc", "Ltd", "Group", "Partners", "Holdings", "Industries"}
	streets   = []string{"Jay St", "Lois Av", "Main St", "Market St", "Oak Dr", "Hill Rd", "Bay Ct", "Mill Ln", "Park Pl", "Lake Vw"}
)

// createdAt draws a creation time up to a year before epoch, always half an
// hour off the hour so no AGE() lands exactly on an hour-valued bound.
func createdAt(r *rand.Rand) time.Time {
	return epoch.Add(-time.Duration(r.Intn(365*24))*time.Hour - 30*time.Minute)
}

// genCustomers draws n rows numbered from first; the number is part of the
// key, so rows of different ranges never collide.
func genCustomers(r *rand.Rand, first, n int) []customer {
	out := make([]customer, n)
	for i := range out {
		out[i] = customer{
			Name:    fmt.Sprintf("%s %s %d", nameFirst[r.Intn(len(nameFirst))], nameLast[r.Intn(len(nameLast))], first+i),
			Addr:    fmt.Sprintf("%d %s", 1+r.Intn(999), streets[r.Intn(len(streets))]),
			Emp:     int64(1 + r.Intn(maxEmp)),
			AddrSrc: sources[r.Intn(len(sources))],
			EmpSrc:  sources[r.Intn(len(sources))],
			AddrAt:  createdAt(r),
			EmpAt:   createdAt(r),
		}
	}
	return out
}

func strLit(s string) string { return value.Str(s).Literal() }

func timeLit(t time.Time) string { return "t'" + t.UTC().Format(time.RFC3339) + "'" }

func tagBlock(at time.Time, src string) string {
	return "@ {creation_time: " + timeLit(at) + ", source: " + strLit(src) + "}"
}

func insertSQL(c customer) string {
	return "INSERT INTO customer VALUES (" + strLit(c.Name) + ", " +
		strLit(c.Addr) + " " + tagBlock(c.AddrAt, c.AddrSrc) + ", " +
		fmt.Sprint(c.Emp) + " " + tagBlock(c.EmpAt, c.EmpSrc) + ")"
}

func dimBand(emp int64) string { return fmt.Sprintf("b%02d", emp/1000) }

func dimSQL() []string {
	var out []string
	for e := int64(dimStep); e <= maxEmp; e += dimStep {
		out = append(out, fmt.Sprintf("INSERT INTO emp_dim VALUES (%d, %s)", e, strLit(dimBand(e))))
	}
	return out
}

func pointSQL(name string) string {
	return "SELECT co_name, employees FROM customer WHERE co_name = " + strLit(name)
}

// update re-tags one cell: a new employee count with a new source and
// creation time.
type update struct {
	Key string
	Emp int64
	Src string
	At  time.Time
}

func (u update) SQL() string {
	return fmt.Sprintf("UPDATE customer SET employees = %d %s WHERE co_name = %s",
		u.Emp, tagBlock(u.At, u.Src), strLit(u.Key))
}

// shape is one quality_scan query; table.expect gives its answer.
type shape struct {
	Name string
	SQL  string
}

// scanShapes are the quality_scan cycle: a plain value filter as the
// control, the paper's three kinds of quality filter, and a hash join with
// grouping.
var scanShapes = []shape{
	{"value_filter", `SELECT COUNT(*) AS n FROM customer WHERE employees >= 5000`},
	{"source_filter", `SELECT COUNT(*) AS n FROM customer WITH QUALITY employees@source != 'estimate'`},
	{"age_projection", `SELECT co_name, employees FROM customer WHERE employees >= 9000 WITH QUALITY AGE(employees@creation_time) <= d'720h'`},
	{"source_groups", `SELECT employees@source AS src, COUNT(*) AS n FROM customer GROUP BY employees@source`},
	{"join_groups", `SELECT band, COUNT(*) AS n FROM customer JOIN emp_dim ON customer.employees = emp_dim.employees GROUP BY band`},
}

// sourceGroupsSQL is the per-@source count every state check runs.
var sourceGroupsSQL = scanShapes[3].SQL

// table is the benchmark's own model of the customer table: what every
// answer must be, computed from the generated rows and the writes the
// server acknowledged.
type table struct {
	rows  map[string]*customer
	order []string
}

func newTable(rows []customer) *table {
	t := &table{rows: make(map[string]*customer, len(rows))}
	t.add(rows)
	return t
}

func (t *table) add(rows []customer) {
	for i := range rows {
		c := rows[i]
		t.rows[c.Name] = &c
		t.order = append(t.order, c.Name)
	}
}

func (t *table) apply(u update) {
	c := t.rows[u.Key]
	c.Emp, c.EmpSrc, c.EmpAt = u.Emp, u.Src, u.At
}

func (t *table) count() int { return len(t.rows) }

// sourceCounts is the expected answer of GROUP BY employees@source, as
// literal-rendered source -> count.
func (t *table) sourceCounts() map[string]int {
	m := map[string]int{}
	for _, c := range t.rows {
		m[strLit(c.EmpSrc)]++
	}
	return m
}

// expect computes one scan shape's answer as sorted row strings, cells
// joined by "|" as rowStrings renders a wire answer.
func (t *table) expect(sh string) []string {
	var out []string
	switch sh {
	case "value_filter", "source_filter":
		n := 0
		for _, c := range t.rows {
			if (sh == "value_filter" && c.Emp >= 5000) || (sh == "source_filter" && c.EmpSrc != "estimate") {
				n++
			}
		}
		out = append(out, fmt.Sprintf("%d", n))
	case "age_projection":
		for _, c := range t.rows {
			if c.Emp >= 9000 && epoch.Sub(c.EmpAt) <= 720*time.Hour {
				out = append(out, strLit(c.Name)+"|"+fmt.Sprint(c.Emp))
			}
		}
	case "source_groups":
		for src, n := range t.sourceCounts() {
			out = append(out, fmt.Sprintf("%s|%d", src, n))
		}
	case "join_groups":
		m := map[string]int{}
		for _, c := range t.rows {
			if c.Emp%dimStep == 0 {
				m[strLit(dimBand(c.Emp))]++
			}
		}
		for b, n := range m {
			out = append(out, fmt.Sprintf("%s|%d", b, n))
		}
	}
	sort.Strings(out)
	return out
}

// rowStrings renders a wire answer in expect's form.
func rowStrings(rows [][]string) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = strings.Join(r, "|")
	}
	sort.Strings(out)
	return out
}

// zipfKeys draws n keys from names with a Zipf(1.1) popularity over a
// seeded shuffle: the hottest few hundred keys fit the 256-entry plan
// cache, the long tail does not.
func zipfKeys(r *rand.Rand, names []string, n int) []string {
	perm := r.Perm(len(names))
	z := rand.NewZipf(r, 1.1, 1, uint64(len(names)-1))
	out := make([]string, n)
	for i := range out {
		out[i] = names[perm[z.Uint64()]]
	}
	return out
}

// genUpdates draws n single-row updates over uniformly chosen keys.
func genUpdates(r *rand.Rand, names []string, n int) []update {
	out := make([]update, n)
	for i := range out {
		out[i] = update{
			Key: names[r.Intn(len(names))],
			Emp: int64(1 + r.Intn(maxEmp)),
			Src: sources[r.Intn(len(sources))],
			At:  createdAt(r),
		}
	}
	return out
}

// expectedCheckpoints is the number of automatic checkpoints a log must
// have taken after records appends. It refuses a record count within
// ckptMargin of a trigger, where the count would depend on timing.
func expectedCheckpoints(records int) (int, error) {
	rem := records % ckptEvery
	if rem < ckptMargin || rem > ckptEvery-ckptMargin {
		return 0, fmt.Errorf("%d records lie %d from a checkpoint trigger (need %d)", records, min(rem, ckptEvery-rem), ckptMargin)
	}
	return records / ckptEvery, nil
}
