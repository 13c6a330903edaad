#!/usr/bin/env bash
# every distance, and the PD floor (1e-12 times each sample's mean
# eigenvalue), is invariant to a common scaling of the samples: a set
# scaled by 1e-150 or by 1e150 must load, train and evaluate as the
# unscaled one, W apart from rounding
work=$(mktemp -d)
spdalign synth --output-dir "$work/x1" --dim 8 --classes 3 --per-class 6 \
  --noise 0.3 --seed 1
for scale in 1e-150 1e150; do
  cp -r "$work/x1" "$work/x$scale"
  python -c "import glob, sys, numpy as np; from spdalign.fileio import save_matrix; [save_matrix(p, float(sys.argv[2]) * np.loadtxt(p, skiprows=1, ndmin=2)) for p in glob.glob(sys.argv[1] + '/samples/*.txt')]" "$work/x$scale" "$scale"
done
for metric in aim stein lem; do
  for scale in 1 1e-150 1e150; do
    spdalign train --manifest "$work/x$scale/manifest.txt" --metric "$metric" \
      --target-dim 3 --max-iters 5 --output-dir "$work/$metric-$scale" \
      > "$work/$metric-$scale-train.txt"
    spdalign eval --manifest "$work/x$scale/manifest.txt" --metric "$metric" \
      --splits 4 --transform "$work/$metric-$scale/W.txt" > "$work/$metric-$scale-eval.txt"
  done
  cat "$work/$metric-1-train.txt" "$work/$metric-1-eval.txt"
  for scale in 1e-150 1e150; do
    # the stop reason and iteration count, the trace's rows and the accuracies
    cmp <(grep '^stopped after' "$work/$metric-1-train.txt") \
      <(grep '^stopped after' "$work/$metric-$scale-train.txt")
    cmp <(grep -c . "$work/$metric-1/trace.txt") <(grep -c . "$work/$metric-$scale/trace.txt")
    cmp <(grep '1-NN' "$work/$metric-1-eval.txt") <(grep '1-NN' "$work/$metric-$scale-eval.txt")
    # W within 1e-9 of max |W|: the runs differ by rounding alone
    python -c "import sys, numpy as np; from spdalign.fileio import load_transform; a, b = (load_transform(p) for p in sys.argv[1:]); d = np.abs(a - b).max(); print(f'$metric x$scale: max |W - W1| = {d:.3e}'); sys.exit(int(d > 1e-9 * np.abs(a).max()))" \
      "$work/$metric-1/W.txt" "$work/$metric-$scale/W.txt"
  done
done
