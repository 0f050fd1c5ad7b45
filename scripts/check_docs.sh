#!/bin/sh
# check_docs.sh — the docs/lint gate run by CI:
#   1. every file must be gofmt-clean;
#   2. every example program must build;
#   3. every exported identifier in the root dcdht package must carry a
#      doc comment (grep-based: an exported top-level func/type/var/const
#      declaration must be preceded by a comment line or live in a
#      commented group);
#   4. every relative markdown link in README.md and docs/*.md must
#      resolve to an existing file (anchors stripped; external and
#      absolute URLs skipped).
#   5. every "dcdht_..." metric family named in non-test Go outside
#      benchmarks/ has a row in docs/OBSERVABILITY.md's tables, and
#      every row there names such a family.
#   6. every family step 5 collects is read somewhere: named in a
#      _test.go file, in a file under scripts/ other than this one, or
#      in a .go source under benchmarks/. A family nothing reads is
#      code to delete, not to document.
# Run from the repository root: ./scripts/check_docs.sh
set -eu

fail=0

# 1. gofmt
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    fail=1
fi

# 2. examples build
if ! go build ./examples/...; then
    echo "examples failed to build" >&2
    fail=1
fi

# 3. exported identifiers in the root package are documented
for f in *.go; do
    case "$f" in
    *_test.go) continue ;;
    esac
    missing=$(awk '
        # A pending group is fine if its first member line is a comment.
        pending != "" { if ($0 !~ /^[\t ]*\/\//) print pending; pending = "" }
        /^(func|type|var|const) [A-Z]/ && prev !~ /^\/\// { print FILENAME ":" FNR ": " $0 }
        # Exported methods on exported receiver types (an unexported
        # receiver keeps its methods out of the godoc surface).
        /^func \([a-zA-Z0-9_]+ \*?[A-Z][A-Za-z0-9_]*\) [A-Z]/ && prev !~ /^\/\// { print FILENAME ":" FNR ": " $0 }
        /^(var|const) \($/ && prev !~ /^\/\//             { pending = FILENAME ":" FNR ": " $0 }
        { prev = $0 }
        END { if (pending != "") print pending }
    ' "$f")
    if [ -n "$missing" ]; then
        echo "undocumented exported declarations:" >&2
        echo "$missing" >&2
        fail=1
    fi
done

# 4. relative links in README.md and docs/*.md resolve
for f in README.md docs/*.md; do
    [ -f "$f" ] || continue
    dir=$(dirname "$f")
    # Extract every "](target)" link target, one per line. `|| true`
    # keeps a link-free file from aborting the script under set -e;
    # splitting on newlines only keeps targets with spaces intact.
    targets=$(grep -oE '\]\([^)]+\)' "$f" | sed 's/^](//; s/)$//') || true
    oldIFS=$IFS
    IFS='
'
    for target in $targets; do
        case "$target" in
        http://*|https://*|mailto:*|/*|\#*) continue ;;
        esac
        path=${target%%#*}          # strip the anchor
        [ -n "$path" ] || continue  # pure-anchor link
        if [ ! -e "$dir/$path" ]; then
            echo "$f: broken relative link -> $target" >&2
            fail=1
        fi
    done
    IFS=$oldIFS
done

# 5. the metrics table and the registered families agree
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
find . -name '*.go' ! -name '*_test.go' ! -path './benchmarks/*' ! -path './.*' -print0 |
    xargs -0 grep -ohE '"dcdht_[a-z0-9_]+"' | tr -d '"' | sort -u > "$tmp/registered"
grep -oE '^\| `dcdht_[a-z0-9_]+`' docs/OBSERVABILITY.md |
    sed 's/^| `//; s/`$//' | sort -u > "$tmp/documented"
missing=$(comm -23 "$tmp/registered" "$tmp/documented")
if [ -n "$missing" ]; then
    echo "metric families with no row in docs/OBSERVABILITY.md:" >&2
    echo "$missing" >&2
    fail=1
fi
stale=$(comm -13 "$tmp/registered" "$tmp/documented")
if [ -n "$stale" ]; then
    echo "docs/OBSERVABILITY.md rows naming no registered family:" >&2
    echo "$stale" >&2
    fail=1
fi

# 6. every registered family has a reader. A histogram read by one of
# its series (_bucket, _sum, _count) counts as read.
{
    find . -name '*_test.go' ! -path './.*' -print0
    find scripts -type f ! -name check_docs.sh -print0
    find benchmarks -name '*.go' -print0
} | xargs -0 grep -ohE 'dcdht_[a-z0-9_]+' | sed -E 'p; s/_(bucket|sum|count)$//' |
    sort -u > "$tmp/read"
unread=$(comm -23 "$tmp/registered" "$tmp/read")
if [ -n "$unread" ]; then
    echo "metric families no test, script or benchmark source reads:" >&2
    echo "$unread" >&2
    fail=1
fi

if [ "$fail" -ne 0 ]; then
    exit 1
fi
echo "docs check clean: gofmt, examples, exported doc comments, relative links, metrics table, metric readers"
