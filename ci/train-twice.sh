#!/usr/bin/env bash
work=$(mktemp -d)
spdalign synth --output-dir "$work/data" --dim 6 --classes 3 --per-class 6 --seed 1
# the same dataset with CRLF line endings in every sample file
cp -r "$work/data" "$work/crlf"
sed -i 's/$/\r/' "$work"/crlf/samples/*.txt
grep -c $'\r$' "$work/crlf/samples/s0000.txt"
for metric in aim stein lem; do
  for run in 1 2; do
    spdalign train --manifest "$work/data/manifest.txt" --metric "$metric" \
      --target-dim 2 --max-iters 3 --output-dir "$work/$metric-$run"
  done
  # reruns must be byte-identical
  cmp "$work/$metric-1/W.txt" "$work/$metric-2/W.txt"
  cmp "$work/$metric-1/trace.txt" "$work/$metric-2/trace.txt"
  # and line endings must not matter
  spdalign train --manifest "$work/crlf/manifest.txt" --metric "$metric" \
    --target-dim 2 --max-iters 3 --output-dir "$work/$metric-crlf"
  cmp "$work/$metric-1/W.txt" "$work/$metric-crlf/W.txt"
  cmp "$work/$metric-1/trace.txt" "$work/$metric-crlf/trace.txt"
  for run in 1 2; do
    spdalign eval --manifest "$work/data/manifest.txt" --metric "$metric" \
      --splits 4 --transform "$work/$metric-1/W.txt" > "$work/$metric-eval-$run.txt"
  done
  # evaluation is a pure function of its inputs
  cmp "$work/$metric-eval-1.txt" "$work/$metric-eval-2.txt"
  cat "$work/$metric-eval-1.txt"
done
