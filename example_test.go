package qpipe_test

import (
	"context"
	"errors"
	"fmt"
	"log"

	"qpipe"
	"qpipe/sql"
)

// ExampleDB_Exec loads a schema and rows from plain SQL text.
func ExampleDB_Exec() {
	db, err := qpipe.Open(qpipe.Options{})
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()
	ctx := context.Background()

	if _, err := db.Exec(ctx, `
		CREATE TABLE cities (id INT, city TEXT, pop FLOAT);
		CREATE INDEX ON cities (id)
	`); err != nil {
		log.Fatal(err)
	}
	n, err := db.Exec(ctx, `INSERT INTO cities VALUES
		(1, 'Pittsburgh', 0.30), (2, 'Boston', 0.65), (3, 'Seattle', 0.74)`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("inserted %d rows into %v\n", n, db.Tables())
	// Output:
	// inserted 3 rows into [cities]
}

// ExampleDB_Query poses a declarative query and streams its rows; EXPLAIN
// returns the lowered physical plan as text rows.
func ExampleDB_Query() {
	db, err := qpipe.Open(qpipe.Options{})
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()
	ctx := context.Background()
	if _, err := db.Exec(ctx, `CREATE TABLE cities (id INT, city TEXT, pop FLOAT)`); err != nil {
		log.Fatal(err)
	}
	if _, err := db.Exec(ctx, `INSERT INTO cities VALUES
		(1, 'Pittsburgh', 0.30), (2, 'Boston', 0.65), (3, 'Seattle', 0.74)`); err != nil {
		log.Fatal(err)
	}

	res, err := db.Query(ctx,
		"SELECT city, pop * 1000000 AS population FROM cities WHERE pop > 0.5 ORDER BY city",
		qpipe.WithParallelism(2))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(res.Schema())
	for row := range res.Rows() {
		fmt.Printf("%s %.0f\n", row[0].S, row[1].F)
	}
	if err := res.Err(); err != nil {
		log.Fatal(err)
	}

	res, err = db.Query(ctx, "EXPLAIN SELECT count(*) FROM cities WHERE pop > 0.5")
	if err != nil {
		log.Fatal(err)
	}
	for row := range res.Rows() {
		fmt.Println(row[0].S)
	}
	if err := res.Err(); err != nil {
		log.Fatal(err)
	}
	// Output:
	// [city:string, population:float]
	// Boston 650000
	// Seattle 740000
	// Aggregate count(*) rows≈1
	//   TableScan cities (unordered) cols=[] filter=(c2>k2:0.5) rows≈2
}

// ExampleDB_Prepare compiles SQL to the same reusable Query value the
// fluent builder produces, so the two front ends mix freely.
func ExampleDB_Prepare() {
	db, err := qpipe.Open(qpipe.Options{})
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()
	if _, err := db.Exec(context.Background(),
		`CREATE TABLE t (k INT, v FLOAT); INSERT INTO t VALUES (1, 2.5), (2, 4.5)`); err != nil {
		log.Fatal(err)
	}

	fromSQL, err := db.Prepare("SELECT sum(v) AS total FROM t")
	if err != nil {
		log.Fatal(err)
	}
	fromBuilder := db.Scan("t").Aggregate(qpipe.Sum(qpipe.Col("v")).As("total"))

	a, _ := fromSQL.Plan()
	b, _ := fromBuilder.Plan()
	fmt.Println("same signature:", a.Signature() == b.Signature())
	// Output:
	// same signature: true
}

// ExampleDB_Scan is the fluent-builder route to the same queries SQL poses.
func ExampleDB_Scan() {
	db, err := qpipe.Open(qpipe.Options{})
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()
	if err := db.CreateTable("cities", qpipe.NewSchema(
		qpipe.ColDef("id", qpipe.KindInt),
		qpipe.ColDef("city", qpipe.KindString),
		qpipe.ColDef("pop", qpipe.KindFloat))); err != nil {
		log.Fatal(err)
	}
	if err := db.Load("cities", []qpipe.Row{
		qpipe.R(1, "Pittsburgh", 0.30), qpipe.R(2, "Boston", 0.65)}); err != nil {
		log.Fatal(err)
	}

	res, err := db.Scan("cities").
		Filter(qpipe.Col("pop").Gt(qpipe.Float(0.5))).
		Select("city").
		Run(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	for row := range res.Rows() {
		fmt.Println(row[0].S)
	}
	if err := res.Err(); err != nil {
		log.Fatal(err)
	}
	// Output:
	// Boston
}

// ExampleSession shows SQL SET statements mapping onto per-query options.
func ExampleSession() {
	var sess qpipe.Session
	for _, text := range []string{"SET parallelism = 4", "SET osp = off"} {
		stmt, err := sql.Parse(text)
		if err != nil {
			log.Fatal(err)
		}
		if err := sess.Apply(stmt.(*sql.Set)); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Println(sess.String())
	fmt.Println("options:", len(sess.Options()))
	// Output:
	// parallelism=4 batch_size=default osp=off statement_timeout=off
	// options: 2
}

// ExampleParseError shows the position-annotated syntax errors the SQL
// front end returns.
func ExampleParseError() {
	db, err := qpipe.Open(qpipe.Options{})
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()
	_, err = db.Query(context.Background(), "SELECT city\nFROM cities\nWHERE pop >")
	var pe *sql.ParseError
	if errors.As(err, &pe) {
		fmt.Printf("line %d, column %d: %s\n", pe.Pos.Line, pe.Pos.Col, pe.Msg)
	}
	// Output:
	// line 3, column 12: expected an expression, found end of input
}
