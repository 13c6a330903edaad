#!/usr/bin/env bash
# Run every console-script and benchmark step of the CI workflow here, in the
# workflow's order, without installing the package: a `spdalign` shim on PATH
# runs the command line from src/. Prints PASS or FAIL per step and exits 1
# if any step failed. The steps that set up the environment (Install, the
# SciPy install and the no-SciPy check) and the tier-1 tests run only in the
# workflow.
#
#   ci/run_local.sh            from anywhere inside the repository
set -u
root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root"
scratch=$(mktemp -d)
trap 'rm -rf "$scratch"' EXIT
mkdir "$scratch/bin" "$scratch/tmp" "$scratch/logs"
cat > "$scratch/bin/spdalign" <<'SHIM'
#!/bin/sh
exec python3 -c "from spdalign.cli import entry; entry()" "$@"
SHIM
chmod +x "$scratch/bin/spdalign"
export PATH="$scratch/bin:$PATH"
export PYTHONPATH="$root/src${PYTHONPATH:+:$PYTHONPATH}"
# each step's mktemp -d work directories go with the scratch directory
export TMPDIR="$scratch/tmp"

failed=0
# one "name<TAB>script" line per step that calls a ci/ script
steps=$(awk '/^ *- name: / { sub(/^ *- name: /, ""); name = $0 }
             /^ *run: bash -e -o pipefail ci\/.*\.sh$/ { print name "\t" $NF }' \
  .github/workflows/tests.yml)
while IFS=$'\t' read -r name script; do
  log="$scratch/logs/$(basename "$script" .sh).txt"
  start=$SECONDS
  if bash -e -o pipefail "$script" > "$log" 2>&1 < /dev/null; then
    echo "PASS $name ($((SECONDS - start)) s)"
  else
    echo "FAIL $name ($((SECONDS - start)) s); last lines of its output:"
    tail -n 20 "$log" | sed 's/^/    /'
    failed=1
  fi
done <<< "$steps"
exit "$failed"
