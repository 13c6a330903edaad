#!/usr/bin/env bash
# the Stein gradient inverts each midpoint from its Cholesky factor:
# at target dim 1 directly, at 20 with a stack's factors held
# entry-major; both must rerun byte-identical and evaluate
work=$(mktemp -d)
spdalign synth --output-dir "$work/data" --dim 24 --classes 3 --per-class 8
manifest="$work/data/manifest.txt"
for m in 1 20; do
  for run in 1 2; do
    spdalign train --manifest "$manifest" --metric stein --target-dim "$m" \
      --max-iters 2 --output-dir "$work/m$m-$run"
  done
  cmp "$work/m$m-1/W.txt" "$work/m$m-2/W.txt"
  cmp "$work/m$m-1/trace.txt" "$work/m$m-2/trace.txt"
  spdalign eval --manifest "$manifest" --metric stein --splits 4 \
    --transform "$work/m$m-1/W.txt"
done
