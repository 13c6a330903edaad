#!/usr/bin/env bash
# training is a pure function of its inputs whatever the BLAS
# thread count: the log-Euclidean pair pass takes one weighted
# product per pair (one stacked matmul per block), so that a value
# depends neither on its slot in the block nor on how many threads
# the BLAS runs
work=$(mktemp -d)
spdalign synth --output-dir "$work/data" --dim 20 --classes 5 --per-class 10 --noise 0.2
for metric in aim stein lem; do
  for threads in 1 2; do
    OPENBLAS_NUM_THREADS=$threads OMP_NUM_THREADS=$threads \
      spdalign train --manifest "$work/data/manifest.txt" --metric "$metric" \
      --target-dim 5 --max-iters 5 --output-dir "$work/$metric-$threads"
  done
  cmp "$work/$metric-1/W.txt" "$work/$metric-2/W.txt"
  cmp "$work/$metric-1/trace.txt" "$work/$metric-2/trace.txt"
done
