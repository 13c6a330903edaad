#!/usr/bin/env bash
# eval scores its splits stacked, in groups of splits: at 100 splits
# of the screened-AIM shape it must stay a pure function, and every
# split's accuracy must equal knn_classify on that split alone
work=$(mktemp -d)
spdalign synth --output-dir "$work/data" --dim 20 --classes 5 --per-class 10 --noise 0.2
spdalign train --manifest "$work/data/manifest.txt" --metric aim \
  --target-dim 5 --max-iters 3 --output-dir "$work/aim"
for metric in aim stein lem; do
  for run in 1 2; do
    spdalign eval --manifest "$work/data/manifest.txt" --metric "$metric" \
      --splits 100 --transform "$work/aim/W.txt" > "$work/$metric-eval-$run.txt"
  done
  cmp "$work/$metric-eval-1.txt" "$work/$metric-eval-2.txt"
  cat "$work/$metric-eval-1.txt"
  python -c "import sys; from spdalign.evaluate import knn_classify, repeated_split_eval, split; from spdalign.fileio import load_dataset, load_transform; data, _, _ = load_dataset(sys.argv[1]); W = load_transform(sys.argv[2]); m = sys.argv[3]; out = open(sys.argv[4]).read(); s = repeated_split_eval(data, m, repeats=100, seed=0, W=W); bad = [(r, k) for r in range(100) for k, acc, t in (('baseline', s.baseline, None), ('transformed', s.transformed, W)) if acc[r] != knn_classify(*split(data, 0.5, r), m, W=t).accuracy]; bad += [k for k, (mean, std) in (('baseline', s.baseline_mean_std), ('transformed', s.transformed_mean_std)) if f'{k} 1-NN ({m}): mean={mean:.4f} std={std:.4f} over 100 split(s)' not in out]; print(m, 'mismatches:', bad); sys.exit(int(bool(bad)))" \
    "$work/data/manifest.txt" "$work/aim/W.txt" "$metric" "$work/$metric-eval-1.txt"
done
