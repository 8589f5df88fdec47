// Package tpch provides a scaled-down, deterministic dbgen-equivalent for
// the TPC-H schema (all eight tables, preserved key relationships and
// relative cardinalities) plus the query plans the paper's evaluation uses
// (Q1, Q4 in merge-join and hash-join forms, Q6, Q8, Q12, Q13, Q14, Q19)
// and a qgen-equivalent that randomizes selection predicates per query
// instance (§5.3: "the selection predicates for base table scans were
// generated randomly using the standard qgen utility").
//
// Substitutions vs. the real dbgen (documented in DESIGN.md §2): text
// columns irrelevant to the queries are dropped or shortened, p_type is an
// integer category (0-149) with "PROMO" = type < 25, and row counts scale
// by SF from the standard SF=1 cardinalities.
package tpch

import (
	"fmt"
	"math/rand"
	"time"

	"qpipe/internal/storage/sm"
	"qpipe/internal/tuple"
)

// Days converts a civil date to days since the Unix epoch (our date
// representation).
func Days(y int, m time.Month, d int) int64 {
	return time.Date(y, m, d, 0, 0, 0, 0, time.UTC).Unix() / 86400
}

// The TPC-H population date range.
var (
	StartDate = Days(1992, time.January, 1)
	EndDate   = Days(1998, time.December, 31)
)

// Schemas for the eight TPC-H tables (columns the evaluation queries use).
var (
	LineitemSchema = tuple.NewSchema(
		tuple.Col("l_orderkey", tuple.KindInt),
		tuple.Col("l_partkey", tuple.KindInt),
		tuple.Col("l_suppkey", tuple.KindInt),
		tuple.Col("l_linenumber", tuple.KindInt),
		tuple.Col("l_quantity", tuple.KindFloat),
		tuple.Col("l_extendedprice", tuple.KindFloat),
		tuple.Col("l_discount", tuple.KindFloat),
		tuple.Col("l_tax", tuple.KindFloat),
		tuple.Col("l_returnflag", tuple.KindString),
		tuple.Col("l_linestatus", tuple.KindString),
		tuple.Col("l_shipdate", tuple.KindDate),
		tuple.Col("l_commitdate", tuple.KindDate),
		tuple.Col("l_receiptdate", tuple.KindDate),
		tuple.Col("l_shipmode", tuple.KindString),
	)
	OrdersSchema = tuple.NewSchema(
		tuple.Col("o_orderkey", tuple.KindInt),
		tuple.Col("o_custkey", tuple.KindInt),
		tuple.Col("o_orderstatus", tuple.KindString),
		tuple.Col("o_totalprice", tuple.KindFloat),
		tuple.Col("o_orderdate", tuple.KindDate),
		tuple.Col("o_orderpriority", tuple.KindString),
		tuple.Col("o_shippriority", tuple.KindInt),
	)
	CustomerSchema = tuple.NewSchema(
		tuple.Col("c_custkey", tuple.KindInt),
		tuple.Col("c_name", tuple.KindString),
		tuple.Col("c_nationkey", tuple.KindInt),
		tuple.Col("c_mktsegment", tuple.KindString),
		tuple.Col("c_acctbal", tuple.KindFloat),
	)
	PartSchema = tuple.NewSchema(
		tuple.Col("p_partkey", tuple.KindInt),
		tuple.Col("p_brand", tuple.KindString),
		tuple.Col("p_type", tuple.KindInt),
		tuple.Col("p_size", tuple.KindInt),
		tuple.Col("p_container", tuple.KindString),
		tuple.Col("p_retailprice", tuple.KindFloat),
	)
	SupplierSchema = tuple.NewSchema(
		tuple.Col("s_suppkey", tuple.KindInt),
		tuple.Col("s_name", tuple.KindString),
		tuple.Col("s_nationkey", tuple.KindInt),
	)
	PartsuppSchema = tuple.NewSchema(
		tuple.Col("ps_partkey", tuple.KindInt),
		tuple.Col("ps_suppkey", tuple.KindInt),
		tuple.Col("ps_availqty", tuple.KindInt),
		tuple.Col("ps_supplycost", tuple.KindFloat),
	)
	NationSchema = tuple.NewSchema(
		tuple.Col("n_nationkey", tuple.KindInt),
		tuple.Col("n_name", tuple.KindString),
		tuple.Col("n_regionkey", tuple.KindInt),
	)
	RegionSchema = tuple.NewSchema(
		tuple.Col("r_regionkey", tuple.KindInt),
		tuple.Col("r_name", tuple.KindString),
	)
)

var (
	shipmodes   = []string{"REG AIR", "AIR", "RAIL", "SHIP", "TRUCK", "MAIL", "FOB"}
	priorities  = []string{"1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"}
	segments    = []string{"AUTOMOBILE", "BUILDING", "FURNITURE", "MACHINERY", "HOUSEHOLD"}
	containers  = []string{"SM CASE", "SM BOX", "SM PACK", "SM PKG", "MED BAG", "MED BOX", "MED PKG", "LG CASE", "LG BOX", "LG PACK", "LG PKG"}
	regionNames = []string{"AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"}
	nationNames = []string{"ALGERIA", "ARGENTINA", "BRAZIL", "CANADA", "EGYPT", "ETHIOPIA", "FRANCE", "GERMANY", "INDIA", "INDONESIA", "IRAN", "IRAQ", "JAPAN", "JORDAN", "KENYA", "MOROCCO", "MOZAMBIQUE", "PERU", "CHINA", "ROMANIA", "SAUDI ARABIA", "VIETNAM", "RUSSIA", "UNITED KINGDOM", "UNITED STATES"}
	brandFmt    = "Brand#%d%d"
	// PromoTypeMax: p_type values below this are "PROMO" types (Q14).
	PromoTypeMax = int64(25)
)

// DB is a loaded TPC-H database.
type DB struct {
	Mgr *sm.Manager
	SF  float64

	Orders    int
	Lineitems int
	Customers int
	Parts     int
	Suppliers int
}

// Counts reports the scaled row counts for an SF.
func Counts(sf float64) (orders, customers, parts, suppliers int) {
	scale := func(base int, min int) int {
		n := int(float64(base) * sf)
		if n < min {
			n = min
		}
		return n
	}
	return scale(1_500_000, 50), scale(150_000, 10), scale(200_000, 20), scale(10_000, 5)
}

// Load generates the dataset at scale factor sf and bulk loads it. When
// withClustered is set, clustered B+tree indexes on o_orderkey and
// l_orderkey are built (the access paths Figure 9's merge-join plans use).
func Load(mgr *sm.Manager, sf float64, seed int64, withClustered bool) (*DB, error) {
	rng := rand.New(rand.NewSource(seed))
	nOrders, nCust, nPart, nSupp := Counts(sf)

	db := &DB{Mgr: mgr, SF: sf, Orders: nOrders, Customers: nCust, Parts: nPart, Suppliers: nSupp}

	// region, nation
	if _, err := mgr.CreateTable("REGION", RegionSchema); err != nil {
		return nil, err
	}
	var regions []tuple.Tuple
	for i, name := range regionNames {
		regions = append(regions, tuple.Tuple{tuple.I64(int64(i)), tuple.Str(name)})
	}
	if err := mgr.Load("REGION", regions); err != nil {
		return nil, err
	}
	if _, err := mgr.CreateTable("NATION", NationSchema); err != nil {
		return nil, err
	}
	var nations []tuple.Tuple
	for i, name := range nationNames {
		nations = append(nations, tuple.Tuple{
			tuple.I64(int64(i)), tuple.Str(name), tuple.I64(int64(i % 5)),
		})
	}
	if err := mgr.Load("NATION", nations); err != nil {
		return nil, err
	}

	// supplier
	if _, err := mgr.CreateTable("SUPPLIER", SupplierSchema); err != nil {
		return nil, err
	}
	supp := make([]tuple.Tuple, nSupp)
	for i := range supp {
		supp[i] = tuple.Tuple{
			tuple.I64(int64(i + 1)),
			tuple.Str(fmt.Sprintf("Supplier#%09d", i+1)),
			tuple.I64(int64(rng.Intn(25))),
		}
	}
	if err := mgr.Load("SUPPLIER", supp); err != nil {
		return nil, err
	}

	// customer
	if _, err := mgr.CreateTable("CUSTOMER", CustomerSchema); err != nil {
		return nil, err
	}
	cust := make([]tuple.Tuple, nCust)
	for i := range cust {
		cust[i] = tuple.Tuple{
			tuple.I64(int64(i + 1)),
			tuple.Str(fmt.Sprintf("Customer#%09d", i+1)),
			tuple.I64(int64(rng.Intn(25))),
			tuple.Str(segments[rng.Intn(len(segments))]),
			tuple.F64(float64(rng.Intn(999999)) / 100),
		}
	}
	if err := mgr.Load("CUSTOMER", cust); err != nil {
		return nil, err
	}

	// part
	if _, err := mgr.CreateTable("PART", PartSchema); err != nil {
		return nil, err
	}
	parts := make([]tuple.Tuple, nPart)
	for i := range parts {
		parts[i] = tuple.Tuple{
			tuple.I64(int64(i + 1)),
			tuple.Str(fmt.Sprintf(brandFmt, 1+rng.Intn(5), 1+rng.Intn(5))),
			tuple.I64(int64(rng.Intn(150))),
			tuple.I64(int64(1 + rng.Intn(50))),
			tuple.Str(containers[rng.Intn(len(containers))]),
			tuple.F64(900 + float64(i%201)),
		}
	}
	if err := mgr.Load("PART", parts); err != nil {
		return nil, err
	}

	// partsupp: 4 suppliers per part (scaled).
	if _, err := mgr.CreateTable("PARTSUPP", PartsuppSchema); err != nil {
		return nil, err
	}
	var ps []tuple.Tuple
	for i := 0; i < nPart; i++ {
		for j := 0; j < 4; j++ {
			ps = append(ps, tuple.Tuple{
				tuple.I64(int64(i + 1)),
				tuple.I64(int64(1 + (i*4+j)%nSupp)),
				tuple.I64(int64(1 + rng.Intn(9999))),
				tuple.F64(float64(rng.Intn(100000)) / 100),
			})
		}
	}
	if err := mgr.Load("PARTSUPP", ps); err != nil {
		return nil, err
	}

	// orders + lineitem
	if _, err := mgr.CreateTable("ORDERS", OrdersSchema); err != nil {
		return nil, err
	}
	if _, err := mgr.CreateTable("LINEITEM", LineitemSchema); err != nil {
		return nil, err
	}
	dateRange := int(EndDate - StartDate - 151)
	orders := make([]tuple.Tuple, 0, nOrders)
	var lineitems []tuple.Tuple
	for i := 0; i < nOrders; i++ {
		okey := int64(i + 1)
		odate := StartDate + int64(rng.Intn(dateRange))
		nl := 1 + rng.Intn(7)
		total := 0.0
		for ln := 0; ln < nl; ln++ {
			pkey := int64(1 + rng.Intn(nPart))
			qty := float64(1 + rng.Intn(50))
			price := qty * (900 + float64(int(pkey)%201))
			disc := float64(rng.Intn(11)) / 100
			tax := float64(rng.Intn(9)) / 100
			ship := odate + int64(1+rng.Intn(121))
			commit := odate + int64(30+rng.Intn(61))
			receipt := ship + int64(1+rng.Intn(30))
			rf := "N"
			if receipt <= Days(1995, time.June, 17) {
				if rng.Intn(2) == 0 {
					rf = "A"
				} else {
					rf = "R"
				}
			}
			ls := "O"
			if ship <= Days(1995, time.June, 17) {
				ls = "F"
			}
			total += price * (1 - disc)
			lineitems = append(lineitems, tuple.Tuple{
				tuple.I64(okey),
				tuple.I64(pkey),
				tuple.I64(int64(1 + (int(pkey)*7+ln)%nSupp)),
				tuple.I64(int64(ln + 1)),
				tuple.F64(qty),
				tuple.F64(price),
				tuple.F64(disc),
				tuple.F64(tax),
				tuple.Str(rf),
				tuple.Str(ls),
				tuple.Date(ship),
				tuple.Date(commit),
				tuple.Date(receipt),
				tuple.Str(shipmodes[rng.Intn(len(shipmodes))]),
			})
		}
		status := "O"
		if odate+121 <= Days(1995, time.June, 17) {
			status = "F"
		}
		orders = append(orders, tuple.Tuple{
			tuple.I64(okey),
			tuple.I64(int64(1 + rng.Intn(nCust))),
			tuple.Str(status),
			tuple.F64(total),
			tuple.Date(odate),
			tuple.Str(priorities[rng.Intn(len(priorities))]),
			tuple.I64(0),
		})
	}
	if err := mgr.Load("ORDERS", orders); err != nil {
		return nil, err
	}
	if err := mgr.Load("LINEITEM", lineitems); err != nil {
		return nil, err
	}
	db.Lineitems = len(lineitems)

	if withClustered {
		if err := mgr.BuildClustered("ORDERS", "o_orderkey"); err != nil {
			return nil, err
		}
		if err := mgr.BuildClustered("LINEITEM", "l_orderkey"); err != nil {
			return nil, err
		}
	}
	return db, nil
}

// Attach opens the TPC-H tables on a storage manager sharing the loaded
// disk (a separate buffer pool over identical data).
func Attach(mgr *sm.Manager, withClustered bool) error {
	for _, spec := range []struct {
		name   string
		schema *tuple.Schema
	}{
		{"REGION", RegionSchema}, {"NATION", NationSchema},
		{"SUPPLIER", SupplierSchema}, {"CUSTOMER", CustomerSchema},
		{"PART", PartSchema}, {"PARTSUPP", PartsuppSchema},
		{"ORDERS", OrdersSchema}, {"LINEITEM", LineitemSchema},
	} {
		if _, err := mgr.AttachTable(spec.name, spec.schema); err != nil {
			return err
		}
	}
	if withClustered {
		if err := mgr.AttachClusteredKey("ORDERS", "o_orderkey"); err != nil {
			return err
		}
		if err := mgr.AttachClusteredKey("LINEITEM", "l_orderkey"); err != nil {
			return err
		}
	}
	return nil
}
