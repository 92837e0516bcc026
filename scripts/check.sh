#!/usr/bin/env bash
# Run the four checks a change reports, in order, and exit 1 if any fails:
#
#   1. the tier-1 test suite (tests/);
#   2. scripts/run_all.sh --check, every preset CSV against
#      scripts/presets.sha256;
#   3. the benchmark's own tests (perfbench/), in a process of their own:
#      the traced-pass test needs a cold small-graph cache;
#   4. the line counts of src/gqlab and of tests/*.py.
#
#   scripts/check.sh             takes no flags
set -u
cd "$(dirname "$0")/.."

if [ $# -ne 0 ]; then
    echo "usage: $0" >&2
    exit 2
fi

export PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH}
status=0
step() {
    echo "== $*"
    if ! "$@"; then
        echo "** failed: $*" >&2
        status=1
    fi
}

step python3 -m pytest -q --continue-on-collection-errors
step scripts/run_all.sh --check
step python3 -m pytest perfbench -q
echo "== src/gqlab lines"
cat src/gqlab/*.py | wc -l
echo "== tests/*.py lines"
cat tests/*.py | wc -l
exit $status
