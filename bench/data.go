package main

import (
	"context"
	"fmt"
	"math/rand"

	"qpipe"
	"qpipe/internal/volcano"
	"qpipe/sql"
)

// dataset is everything generated from the seed. The program under test
// only ever sees these rows and the statements drawn from the same seed.
type dataset struct {
	orders, customers, accounts, events []qpipe.Row
}

// Every FLOAT is integer-valued, so SUM and AVG are exact in any merge
// order and a reply can be compared bit for bit with the reference.
func generate(w *workload, seed int64) *dataset {
	rng := rand.New(rand.NewSource(seed))
	d := &dataset{}
	customers := w.orders / 15
	d.orders = make([]qpipe.Row, w.orders)
	vals := make([]qpipe.Value, w.orders*5)
	for i, oid := range rng.Perm(w.orders) {
		r := vals[i*5 : i*5+5 : i*5+5]
		r[0] = qpipe.IntValue(int64(oid))
		r[1] = qpipe.IntValue(int64(rng.Intn(customers)))
		r[2] = qpipe.IntValue(int64(rng.Intn(7)))
		r[3] = qpipe.IntValue(int64(rng.Intn(5)))
		r[4] = qpipe.FloatValue(float64(rng.Intn(997)))
		d.orders[i] = r
	}
	d.customers = make([]qpipe.Row, customers)
	for i, cid := range rng.Perm(customers) {
		d.customers[i] = qpipe.Row{qpipe.IntValue(int64(cid)),
			qpipe.IntValue(int64(rng.Intn(4))), qpipe.FloatValue(float64(rng.Intn(500)))}
	}
	if w.accounts {
		d.accounts = make([]qpipe.Row, numAccounts)
		for i, aid := range rng.Perm(numAccounts) {
			d.accounts[i] = qpipe.Row{qpipe.IntValue(int64(aid)), qpipe.FloatValue(float64(rng.Intn(1000)))}
		}
		d.events = make([]qpipe.Row, w.events)
		for i := range d.events {
			d.events[i] = eventRow(int64(i), int64(rng.Intn(numAccounts)))
		}
	}
	return d
}

// eventNote is the 24-byte note of event eid.
func eventNote(eid int64) string { return fmt.Sprintf("note-%019d", eid) }

func eventRow(eid, aid int64) qpipe.Row {
	return qpipe.Row{qpipe.IntValue(eid), qpipe.IntValue(aid), qpipe.FloatValue(1), qpipe.StringValue(eventNote(eid))}
}

func encodedBytes(rows []qpipe.Row) int64 {
	var n int64
	for _, r := range rows {
		n += int64(r.EncodedSize())
	}
	return n
}

const schemaSQL = `
CREATE TABLE orders (oid INT, cust INT, region INT, priority INT, amount FLOAT);
CREATE TABLE customers (cid INT, segment INT, balance FLOAT);
CREATE TABLE accounts (aid INT, bal FLOAT);
CREATE TABLE events (eid INT, aid INT, delta FLOAT, note TEXT);`

// load creates the tables, loads the dataset, builds the index and
// refreshes statistics: the data part of set-up.
func load(ctx context.Context, db *qpipe.DB, w *workload, d *dataset) error {
	if _, err := db.Exec(ctx, schemaSQL); err != nil {
		return err
	}
	for _, t := range []struct {
		name string
		rows []qpipe.Row
	}{{"orders", d.orders}, {"customers", d.customers}, {"accounts", d.accounts}, {"events", d.events}} {
		if len(t.rows) == 0 {
			continue
		}
		if err := db.Load(t.name, t.rows); err != nil {
			return fmt.Errorf("load %s: %w", t.name, err)
		}
	}
	script := "ANALYZE"
	if w.indexOrders {
		script = "CREATE INDEX ON orders (oid); ANALYZE"
	}
	_, err := db.Exec(ctx, script)
	return err
}

// ---- digests -------------------------------------------------------------------

// digest identifies a result: the row count and a hash over the rows'
// canonical encodings, order-insensitive unless the statement has ORDER BY.
// The unordered form is a sum, so expected digests of tables that grow by
// acknowledged commits are maintained incrementally.
type digest struct {
	rows int64
	hash uint64
}

func rowHash(r qpipe.Row, scratch []byte) (uint64, []byte) {
	scratch = r.Encode(scratch[:0])
	h := uint64(14695981039346656037)
	for _, b := range scratch {
		h ^= uint64(b)
		h *= 1099511628211
	}
	// FNV's low bits are weak under addition; finish with a mixer.
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return h, scratch
}

func (d *digest) add(r qpipe.Row, ordered bool, scratch []byte) []byte {
	h, scratch := rowHash(r, scratch)
	d.rows++
	if ordered {
		d.hash = d.hash*1099511628211 ^ h
	} else {
		d.hash += h
	}
	return scratch
}

func digestOf(rows []qpipe.Row, ordered bool) digest {
	var d digest
	var scratch []byte
	for _, r := range rows {
		scratch = d.add(r, ordered, scratch)
	}
	return d
}

// ---- reference answers -----------------------------------------------------------

// reference holds what every read class must return, computed once at
// set-up by the iterator engine (internal/volcano) over the same stored
// data: recomputation from scratch, the yardstick Berkholz et al. use for
// answers maintained under updates.
type reference struct {
	fixed      [numClasses]digest // classes with one statement text
	ordered    [numClasses]bool
	bal        []float64 // accounts: aid -> bal
	amount     []float64 // orders: oid -> amount
	initialSum float64   // sum(bal) before any commit
}

// oracle runs a SELECT on the iterator engine, applying LIMIT (which the
// facade keeps at result level, outside the plan).
func oracle(ctx context.Context, db *qpipe.DB, text string) (rows []qpipe.Row, ordered bool, err error) {
	stmt, err := sql.Parse(text)
	if err != nil {
		return nil, false, err
	}
	sel, ok := stmt.(*sql.Select)
	if !ok {
		return nil, false, fmt.Errorf("oracle: not a SELECT: %s", text)
	}
	q, err := db.Prepare(text)
	if err != nil {
		return nil, false, err
	}
	p, err := q.Plan()
	if err != nil {
		return nil, false, err
	}
	rows, err = volcano.New(db.Engine().Runtime().SM).Run(ctx, p)
	if err != nil {
		return nil, false, err
	}
	if sel.Limit >= 0 && int64(len(rows)) > sel.Limit {
		rows = rows[:sel.Limit]
	}
	return rows, len(sel.OrderBy) > 0, nil
}

func computeReference(ctx context.Context, db *qpipe.DB, w *workload) (*reference, error) {
	ref := &reference{}
	for _, classes := range w.conns {
		for _, c := range classes {
			if fixedSQL[c] == "" || c == readHot { // read_hot is checked by invariant
				continue
			}
			rows, ordered, err := oracle(ctx, db, fixedSQL[c])
			if err != nil {
				return nil, fmt.Errorf("reference for %s: %w", classNames[c], err)
			}
			ref.fixed[c], ref.ordered[c] = digestOf(rows, ordered), ordered
		}
	}
	if w.accounts {
		rows, _, err := oracle(ctx, db, `SELECT aid, bal FROM accounts`)
		if err != nil {
			return nil, err
		}
		ref.bal = make([]float64, numAccounts)
		for _, r := range rows {
			ref.bal[r[0].I] = r[1].F
			ref.initialSum += r[1].F
		}
	}
	if w.indexOrders {
		rows, _, err := oracle(ctx, db, `SELECT oid, amount FROM orders`)
		if err != nil {
			return nil, err
		}
		ref.amount = make([]float64, w.orders)
		for _, r := range rows {
			ref.amount[r[0].I] = r[1].F
		}
	}
	return ref, nil
}
