#!/usr/bin/env bash
# Run every experiment preset; exit nonzero if any configured threshold fails.
#
#   scripts/run_all.sh           write each preset's CSV under results/
#   scripts/run_all.sh --check   write them to a temporary directory instead,
#                                compare their SHA-256 digests with the
#                                committed scripts/presets.sha256, and exit 1
#                                listing every CSV that differs, is missing
#                                or has no digest there
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
done
if [ "$check" = 1 ]; then
    # the digest file lists every preset CSV in this order, so the diff also
    # shows a CSV that was not written or has no digest
    if ! (cd "$outdir" && LC_ALL=C sha256sum -- *.csv) \
        | diff - scripts/presets.sha256 >&2; then
        echo "** preset CSVs differ from scripts/presets.sha256" \
            "(lines marked < are this run's)" >&2
        exit 1
    fi
    echo "every preset CSV matches scripts/presets.sha256"
fi
exit $status
