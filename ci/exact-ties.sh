#!/usr/bin/env bash
# with noise 0 every class coincides: each nearest neighbor is an
# exact tie at distance about 0, which eval must still resolve
work=$(mktemp -d)
spdalign synth --output-dir "$work/data" --noise 0 --dim 6 --classes 3 --per-class 6
for metric in aim stein lem; do
  spdalign train --manifest "$work/data/manifest.txt" --metric "$metric" \
    --target-dim 2 --max-iters 3 --output-dir "$work/$metric"
  spdalign eval --manifest "$work/data/manifest.txt" --metric "$metric" \
    --splits 4 --transform "$work/$metric/W.txt" > "$work/$metric-eval.txt"
  cat "$work/$metric-eval.txt"
  test "$(grep -c '1-NN .*: mean=1\.0000 ' "$work/$metric-eval.txt")" = 2
done
