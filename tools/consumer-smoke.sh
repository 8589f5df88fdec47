#!/usr/bin/env bash
# Out-of-module consumer smoke: proves the public API is embeddable without
# any qpipe/internal import. Builds a tiny module OUTSIDE this repository
# that depends on qpipe via a go.mod replace directive, compiles it (the Go
# toolchain enforces internal/ visibility across module boundaries, so a
# leak of internal types through the public surface fails this build), and
# runs it end to end. Also greps the examples for internal imports — they
# must stay on the public surface too.
set -euo pipefail

repo=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)

if grep -rn '"qpipe/internal' "$repo/examples/" --include='*.go'; then
    echo "FAIL: examples import qpipe/internal packages" >&2
    exit 1
fi
echo "examples: no internal imports"

dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT

cat > "$dir/main.go" <<'EOF'
// Consumer smoke: an out-of-module embedder driving qpipe's public API —
// facade, DDL, builder with typed errors, per-query options, streaming.
package main

import (
	"context"
	"errors"
	"fmt"
	"log"

	"qpipe"
)

func main() {
	db, err := qpipe.Open(qpipe.Options{PoolPages: 64})
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
		qpipe.R(1, "Pittsburgh", 0.30),
		qpipe.R(2, "Boston", 0.65),
		qpipe.R(3, "Seattle", 0.74),
	}); err != nil {
		log.Fatal(err)
	}

	res, err := db.Scan("cities").
		Filter(qpipe.Col("pop").Gt(qpipe.Float(0.5))).
		Project(qpipe.Col("city"), qpipe.Col("pop").Mul(qpipe.Float(1e6)).As("population")).
		Sort("city").
		Run(context.Background(), qpipe.WithParallelism(2))
	if err != nil {
		log.Fatal(err)
	}
	n := 0
	for row := range res.Rows() {
		fmt.Printf("%s %0.f\n", row[0].S, row[1].F)
		n++
	}
	if err := res.Err(); err != nil {
		log.Fatal(err)
	}
	if n != 2 {
		log.Fatalf("got %d rows, want 2", n)
	}

	// Typed errors must be matchable from outside the module.
	var uc *qpipe.UnknownColumnError
	if _, err := db.Scan("cities").Select("nope").Plan(); !errors.As(err, &uc) {
		log.Fatalf("expected *qpipe.UnknownColumnError, got %v", err)
	}
	fmt.Println("consumer smoke OK")
}
EOF

cd "$dir" || exit 1
go mod init consumer-smoke >/dev/null
go mod edit -require 'qpipe@v0.0.0' -replace "qpipe=$repo"
go build -o consumer .
./consumer

# Second consumer: the sqlshell example built out-of-module, proving the
# whole SQL path (qpipe + qpipe/sql) needs no internal imports either.
dir2=$(mktemp -d)
trap 'rm -rf "$dir" "$dir2"' EXIT
cp "$repo/examples/sqlshell/main.go" "$dir2/main.go"
cd "$dir2" || exit 1
go mod init sqlshell-smoke >/dev/null
go mod edit -require 'qpipe@v0.0.0' -replace "qpipe=$repo"
go build -o sqlshell .
./sqlshell
echo "sqlshell consumer smoke OK"
