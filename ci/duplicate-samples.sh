#!/usr/bin/env bash
# a sample listed twice is at distance exactly 0 from its copy under
# every metric, and train and eval stay pure functions of their inputs
work=$(mktemp -d)
spdalign synth --output-dir "$work/data" --dim 6 --classes 3 --per-class 6 --seed 1
manifest="$work/data/manifest.txt"
echo "dup0000 c000 samples/s0000.txt" >> "$manifest"
python -c "import sys; from spdalign import load_dataset, pairwise_dist2; data, ids, _ = load_dataset(sys.argv[1]); a, b = ids.index('s0000'), ids.index('dup0000'); d = {m: float(pairwise_dist2(m, data.samples)[a, b]) for m in ('aim', 'stein', 'lem')}; print(d); sys.exit(int(any(v != 0.0 for v in d.values())))" \
  "$manifest"
for metric in aim stein lem; do
  for run in 1 2; do
    spdalign train --manifest "$manifest" --metric "$metric" \
      --target-dim 2 --max-iters 3 --output-dir "$work/$metric-$run"
    spdalign eval --manifest "$manifest" --metric "$metric" --splits 4 \
      --transform "$work/$metric-1/W.txt" > "$work/$metric-eval-$run.txt"
  done
  cmp "$work/$metric-1/W.txt" "$work/$metric-2/W.txt"
  cmp "$work/$metric-1/trace.txt" "$work/$metric-2/trace.txt"
  cmp "$work/$metric-eval-1.txt" "$work/$metric-eval-2.txt"
  cat "$work/$metric-eval-1.txt"
done
