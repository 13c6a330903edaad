#!/usr/bin/env bash
# the benchmark's reference shape (dim 20 -> 5, 50 samples, noise
# 0.2, 10 splits): the whitened lower bound must leave most of the
# pairs uncomputed on both manifolds, the full-dimension one and
# the transformed m x m one, eval must stay a pure function, and
# its baseline and transformed means must be those of an exhaustive
# knn_classify over the same 10 splits, to the 4 printed decimals
work=$(mktemp -d)
spdalign synth --output-dir "$work/data" --dim 20 --classes 5 --per-class 10 --noise 0.2
spdalign train --manifest "$work/data/manifest.txt" --metric aim \
  --target-dim 5 --max-iters 3 --output-dir "$work/aim"
for run in 1 2; do
  spdalign eval --manifest "$work/data/manifest.txt" --metric aim \
    --splits 10 --transform "$work/aim/W.txt" > "$work/eval-$run.txt"
done
cmp "$work/eval-1.txt" "$work/eval-2.txt"
cat "$work/eval-1.txt"
counts=$(sed -n 's/^exact distances (aim): baseline \([0-9]*\)\/\([0-9]*\), transformed \([0-9]*\)\/\([0-9]*\) pairs$/\1 \2 \3 \4/p' "$work/eval-1.txt")
set -- $counts
test "$#" = 4
# below half the union on each manifold: the unwhitened bound
# computed about 92% of the full-dimension pairs here
test $((2 * $1)) -lt "$2"
test $((2 * $3)) -lt "$4"
means=$(sed -n 's/^\(baseline\|transformed\) 1-NN (aim): mean=\([^ ]*\) .*$/\2/p' "$work/eval-1.txt" | paste -sd' ')
expected=$(python -c "import sys, numpy as np; from spdalign import knn_classify, load_dataset, split; from spdalign.fileio import load_transform; data, _, _ = load_dataset(sys.argv[1]); W = load_transform(sys.argv[2]); print(' '.join(f'{np.mean([knn_classify(*split(data, 0.5, s), \"aim\", W=w).accuracy for s in range(10)]):.4f}' for w in (None, W)))" \
  "$work/data/manifest.txt" "$work/aim/W.txt")
echo "printed means $means, exhaustive means $expected"
test -n "$expected"
test "$means" = "$expected"
