#!/usr/bin/env bash
# Run every experiment preset; exit nonzero if any configured threshold fails.
#
#   scripts/run_all.sh           write each preset's CSV under results/
#   scripts/run_all.sh --check   write them to a temporary directory instead,
#                                compare each byte for byte with the one in
#                                results/ (left untouched), and exit 1 naming
#                                the first CSV that differs or has no
#                                reference there
set -u
cd "$(dirname "$0")/.."

case "${1:-}" in
    "") check=0 ;;
    --check) check=1 ;;
    *) echo "usage: $0 [--check]" >&2; exit 2 ;;
esac

# each preset's "out" is results/<preset>.csv; --check redirects it
if [ "$check" = 1 ]; then
    outdir=$(mktemp -d)
    trap 'rm -rf "$outdir"' EXIT
else
    mkdir -p results
fi

status=0
for cfg in scripts/*.json; do
    name=$(basename "$cfg" .json)
    echo "== $cfg"
    if [ "$check" = 1 ]; then
        set -- --out "$outdir/$name.csv"
    else
        set --
    fi
    if ! PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python3 -m gqlab.cli run \
        --config "$cfg" "$@"; then
        echo "** threshold or usage failure in $cfg" >&2
        status=1
    fi
    if [ "$check" = 1 ] && [ ! -f "results/$name.csv" ]; then
        echo "** no reference results/$name.csv; write one by running" \
            "scripts/run_all.sh (no flag) on the commit to compare against" >&2
        exit 1
    fi
    if [ "$check" = 1 ] && ! cmp -s "$outdir/$name.csv" "results/$name.csv"; then
        echo "** $name.csv differs from results/$name.csv" >&2
        exit 1
    fi
done
if [ "$check" = 1 ]; then
    echo "every preset CSV matches results/"
fi
exit $status
