#!/usr/bin/env bash
# Server integration smoke: builds qpipe-server, serves the demo dataset on
# a loopback port, drives it with qpipe-shell -connect (a query, the
# remote \stats meta command and a SET), then sends SIGTERM and requires a
# graceful exit. Fails loudly on any step so CI catches a broken wire path, a
# broken remote shell, or a hung drain.
set -euo pipefail

repo=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
cd "$repo" || exit 1

addr=127.0.0.1:5459
bin=$(mktemp -d)
server_pid=""
trap 'kill "$server_pid" 2>/dev/null || true; rm -rf "$bin"' EXIT

go build -o "$bin/qpipe-server" ./cmd/qpipe-server
go build -o "$bin/qpipe-shell" ./cmd/qpipe-shell

"$bin/qpipe-server" -listen "$addr" -demo -rows 5000 -customers 250 \
    -max-queries 8 &
server_pid=$!

# Wait for the listener: the first successful remote query is the gate.
ready=0
for _ in $(seq 1 50); do
    if out=$("$bin/qpipe-shell" -connect "$addr" \
        -c 'SELECT count(*) AS n FROM orders;' 2>/dev/null); then
        ready=1
        break
    fi
    sleep 0.2
done
if [ "$ready" = 0 ]; then
    echo "server-smoke: server never became ready on $addr"
    exit 1
fi
echo "$out"
echo "$out" | grep -q '5000' || {
    echo "server-smoke: remote count(*) did not return 5000"
    exit 1
}

# Remote \stats must surface server-side counters over the wire (meta
# commands are REPL-side, so feed it through stdin).
printf '\\stats\n\\q\n' | "$bin/qpipe-shell" -connect "$addr" \
    | tee /dev/stderr | grep -q 'queries_served' || {
    echo "server-smoke: remote \\stats missing queries_served"
    exit 1
}

# A SET the server must accept as sent (the value only re-parses quoted),
# then \set shows what the session holds.
out=$(printf "SET statement_timeout = '500ms';\n\\set\n\\q\n" \
    | "$bin/qpipe-shell" -connect "$addr")
echo "$out"
if echo "$out" | grep -q 'error:'; then
    echo "server-smoke: remote SET statement_timeout failed"
    exit 1
fi
echo "$out" | grep -q 'statement_timeout=500ms' || {
    echo "server-smoke: \\set does not show statement_timeout=500ms"
    exit 1
}

# SIGTERM: graceful drain, exit 0, final stats line.
kill -TERM "$server_pid"
for _ in $(seq 1 50); do
    if ! kill -0 "$server_pid" 2>/dev/null; then break; fi
    sleep 0.2
done
if kill -0 "$server_pid" 2>/dev/null; then
    echo "server-smoke: server did not exit after SIGTERM"
    exit 1
fi
wait "$server_pid" || {
    echo "server-smoke: server exited non-zero after SIGTERM"
    exit 1
}
echo "server-smoke: OK"
