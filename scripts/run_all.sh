#!/usr/bin/env bash
# Run every experiment preset; exit nonzero if any configured threshold fails.
set -u
cd "$(dirname "$0")/.."
mkdir -p results

status=0
for cfg in scripts/*.json; do
    echo "== $cfg"
    if ! PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python3 -m gqlab.cli run --config "$cfg"; then
        echo "** threshold or usage failure in $cfg" >&2
        status=1
    fi
done
exit $status
