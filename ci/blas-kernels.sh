#!/usr/bin/env bash
# training and evaluation agree across OpenBLAS kernels up to rounding. On
# one fixed synth set, each metric is trained and evaluated under the
# default kernel and under OPENBLAS_CORETYPE=Prescott, the x86-64 baseline
# kernel. Every train line but the `wrote` lines is equal byte for byte,
# save the beta= value, which agrees to TOL relative; the eval output is
# equal; and max |dW| / max |W| is at most TOL. The bytes of W.txt are
# promised on one kernel only (README), so they are not compared here.
# The step fails, not skips, when the forced kernel is not the one that
# runs, as OPENBLAS_VERBOSE=2 reports it.
TOL=1e-12
work=$(mktemp -d)
under() {  # under <default|forced> <command...>
  if [ "$1" = forced ]; then shift; OPENBLAS_CORETYPE=Prescott "$@"; else shift; "$@"; fi
}
core() {
  under "$1" env OPENBLAS_VERBOSE=2 python3 -c "import numpy" 2>&1 | sed -n 's/^Core: //p'
}
default_core=$(core default)
forced_core=$(core forced)
echo "OpenBLAS core: default ${default_core:-unreported}, forced ${forced_core:-unreported}"
if [ -z "$forced_core" ] || [ "$forced_core" = "$default_core" ]; then
  echo "OPENBLAS_CORETYPE=Prescott did not change the reported core"; exit 1
fi
spdalign synth --output-dir "$work/data" --dim 20 --classes 5 --per-class 20 \
  --noise 0.2 --seed 0
for metric in aim stein lem; do
  for side in default forced; do
    out="$work/$metric-$side"
    under "$side" spdalign train --manifest "$work/data/manifest.txt" \
      --metric "$metric" --target-dim 5 --output-dir "$out" > "$out.train"
    grep -v '^wrote ' "$out.train" | sed -E 's/beta=[^ ]+/beta=/' > "$out.lines"
    under "$side" spdalign eval --manifest "$work/data/manifest.txt" \
      --metric "$metric" --transform "$out/W.txt" > "$out.eval"
  done
  cat "$work/$metric-default.train" "$work/$metric-default.eval"
  cmp "$work/$metric-default.lines" "$work/$metric-forced.lines"
  cmp "$work/$metric-default.eval" "$work/$metric-forced.eval"
  python3 - "$TOL" "$work/$metric-default" "$work/$metric-forced" <<'EOF'
import re
import sys

import numpy as np

from spdalign.fileio import load_transform

tol, default, forced = float(sys.argv[1]), sys.argv[2], sys.argv[3]
W, W_forced = (load_transform(f"{run}/W.txt") for run in (default, forced))
w_ratio = np.abs(W_forced - W).max() / np.abs(W).max()
beta, beta_forced = (
    float(re.search(r"beta=(\S+)", open(f"{run}.train").read()).group(1))
    for run in (default, forced))
beta_ratio = abs(beta_forced - beta) / beta
print(f"max |dW| / max |W| = {w_ratio:.2g}, |d beta| / beta = {beta_ratio:.2g}"
      f" (tolerance {tol:g})")
sys.exit(int(not (w_ratio <= tol and beta_ratio <= tol)))
EOF
done
