#!/usr/bin/env bash
# every other train here stops after 2 to 5 iterations; this one runs the
# reference shape (dim 20 -> 5, 50 samples, noise 0.2) to its objective
# tolerance, so the conjugate directions carry over tens of steps: each
# metric must stop by ObjTol inside the budget, print as its iteration count
# the rows of its trace less the start row, rerun byte-identical, and beat
# the untransformed 1-NN mean over 10 splits
work=$(mktemp -d)
spdalign synth --output-dir "$work/data" --dim 20 --classes 5 --per-class 10 --noise 0.2
manifest="$work/data/manifest.txt"
# train has no tolerance flag: rel_obj_tol comes from the config only
printf '{"rel_obj_tol": 2e-4, "max_iters": 200}\n' > "$work/converge.json"
for metric in aim stein lem; do
  for run in 1 2; do
    spdalign train --config "$work/converge.json" --manifest "$manifest" \
      --metric "$metric" --target-dim 5 --output-dir "$work/$metric-$run" \
      > "$work/$metric-train-$run.txt"
  done
  cat "$work/$metric-train-1.txt"
  grep -E '^stopped after [0-9]+ iteration\(s\): ObjTol$' "$work/$metric-train-1.txt"
  # the printed count is the trace's data rows less the start row
  k=$(sed -n 's/^stopped after \([0-9]*\) iteration(s): .*$/\1/p' "$work/$metric-train-1.txt")
  rows=$(grep -cv '^#' "$work/$metric-1/trace.txt")
  test "$k" -eq "$((rows - 1))"
  cmp "$work/$metric-1/W.txt" "$work/$metric-2/W.txt"
  cmp "$work/$metric-1/trace.txt" "$work/$metric-2/trace.txt"
  spdalign eval --manifest "$manifest" --metric "$metric" --splits 10 \
    --transform "$work/$metric-1/W.txt" > "$work/$metric-eval.txt"
  cat "$work/$metric-eval.txt"
  means=$(sed -n 's/^\(baseline\|transformed\) 1-NN .*: mean=\([0-9.]*\) .*$/\2/p' "$work/$metric-eval.txt")
  set -- $means
  test "$#" = 2
  awk -v base="$1" -v learned="$2" 'BEGIN { exit !(learned > base) }'
done
