#!/usr/bin/env bash
# a wide-like set (dim 12, 5 classes of 30, vw = vb = 3): the AIM
# train must compute the exact distance of under half the pairs, rerun
# byte-identically, and take beta from the support pairs of the
# exhaustive graphs, to 17 digits
work=$(mktemp -d)
spdalign synth --output-dir "$work/data" --dim 12 --classes 5 --per-class 30 \
  --noise 0.2 --seed 7
for run in 1 2; do
  spdalign train --manifest "$work/data/manifest.txt" --metric aim \
    --target-dim 4 --vw 3 --vb 3 --max-iters 3 --output-dir "$work/run-$run" \
    > "$work/train-$run.txt"
done
cmp "$work/run-1/W.txt" "$work/run-2/W.txt"
cmp "$work/run-1/trace.txt" "$work/run-2/trace.txt"
cmp <(grep -v '^wrote ' "$work/train-1.txt") <(grep -v '^wrote ' "$work/train-2.txt")
cat "$work/train-1.txt"
counts=$(sed -n 's/^exact distances (aim): \([0-9]*\)\/\([0-9]*\) pairs$/\1 \2/p' "$work/train-1.txt")
set -- $counts
test "$#" = 2
test $((2 * $1)) -lt "$2"
beta=$(sed -n 's/^.* beta=\([^ ]*\) (auto) .*$/\1/p' "$work/train-1.txt")
expected=$(python -c "import sys, numpy as np; from spdalign import load_dataset, neighbor_graphs, pairwise_dist2; data, _, _ = load_dataset(sys.argv[1]); D = pairwise_dist2('aim', data); i, j = neighbor_graphs(data, D, 3, 3).pairs.T; print(f'{1.0 / np.mean(np.sqrt(D[i, j])) ** 2:.17g}')" \
  "$work/data/manifest.txt")
echo "printed beta $beta, exhaustive support-pair beta $expected"
test -n "$beta"
test "$beta" = "$expected"
