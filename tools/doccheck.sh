#!/usr/bin/env bash
# Doc-link checker: fails CI when README.md or ARCHITECTURE.md reference
# repo files or CLI flags that do not exist, so the docs cannot silently rot
# as the code moves.
#
# Checks, per document:
#   1. Relative markdown links [text](path) resolve to files.
#   2. Path-like tokens (cmd/..., internal/..., examples/..., sql/...,
#      tools/..., and bare *.go/*.md/*.sql/*.sh/*.json filenames) name real
#      files — bare filenames may live anywhere in the tree.
#   3. '-flag' tokens in fenced shell blocks exist as defined flags in the
#      benchmark or the cmd/ binaries (or are standard 'go test' flags).
set -euo pipefail

repo=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
cd "$repo" || exit 1

docs=(README.md ARCHITECTURE.md)

# Placeholder names used in usage examples, not expected to exist.
ignored="my_mix.sql FILE file.sql script.sql mix.sql"

is_ignored() {
    # shellcheck disable=SC2086  # $ignored is a deliberate word list
    for ig in $ignored; do
        if [ "$1" = "$ig" ]; then return 0; fi
    done
    return 1
}

# 1. Relative markdown links. (grep finding nothing is fine: || true keeps
# pipefail from treating an empty document section as an error.)
for doc in "${docs[@]}"; do
    { grep -oE '\]\([^)#][^)]*\)' "$doc" || true; } | sed 's/^](//; s/)$//' | while read -r target; do
        case "$target" in
            http://*|https://*|mailto:*) continue ;;
        esac
        if [ ! -e "$target" ]; then
            echo "$doc: broken link -> $target"
            touch "$repo/.doccheck-failed"
        fi
    done
done

# 2. Path-like tokens anywhere in the docs.
for doc in "${docs[@]}"; do
    { grep -oE '(\./)?(cmd|internal|examples|sql|tools)/[A-Za-z0-9_./-]+|[A-Za-z0-9_-]+\.(go|md|sql|sh|json|yml)\b' "$doc" || true; } \
        | sed 's|^\./||; s|[/.]$||' | sort -u | while read -r tok; do
        if is_ignored "$tok"; then continue; fi
        case "$tok" in
            */*)
                if [ ! -e "$tok" ]; then
                    echo "$doc: missing path -> $tok"
                    touch "$repo/.doccheck-failed"
                fi
                ;;
            *)
                # Bare filename: accept it anywhere in the tree (root files
                # like db.go, or nested ones like tpchmix.sql).
                if [ ! -e "$tok" ] && [ -z "$(find . -name "$tok" -not -path './.git/*' -print -quit)" ]; then
                    echo "$doc: missing file -> $tok"
                    touch "$repo/.doccheck-failed"
                fi
                ;;
        esac
    done
done

# 3. CLI flags in fenced shell blocks.
known_flags=$(grep -ohE 'flag\.[A-Za-z0-9]+\((&[A-Za-z_.]+, )?"[a-z_-]+"' bench/main.go cmd/qpipe-shell/main.go cmd/qpipe-server/main.go \
    | sed 's/.*"\([a-z_-]*\)"$/\1/' | sort -u)
go_test_flags="bench benchtime benchmem run race fuzz fuzztime update v count timeout cover"

for doc in "${docs[@]}"; do
    awk '/^```/{in_block=!in_block; next} in_block' "$doc" \
        | { grep -oE '(^| )-[a-z][a-z_-]*' || true; } | sed 's/^ *-//' | sort -u | while read -r f; do
        found=0
        # shellcheck disable=SC2086  # deliberate word lists
        for k in $known_flags $go_test_flags; do
            if [ "$f" = "$k" ]; then found=1; break; fi
        done
        if [ "$found" = 0 ]; then
            echo "$doc: unknown CLI flag -> -$f (not defined in bench, cmd/qpipe-shell or cmd/qpipe-server)"
            touch "$repo/.doccheck-failed"
        fi
    done
done

if [ -e "$repo/.doccheck-failed" ]; then
    rm -f "$repo/.doccheck-failed"
    echo "doccheck: FAILED"
    exit 1
fi
echo "doccheck: README.md and ARCHITECTURE.md references are all valid"
