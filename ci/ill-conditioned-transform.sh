#!/usr/bin/env bash
# a W whose singular values spread by 1e7 passes the rank rule; the
# samples it maps sit under the PD floor for raw arrays, but the
# affine-invariant and Stein distances do not change under W -> W A, so
# eval takes the mapped stack as given and every split's accuracy must
# equal knn_classify on that split alone; the log-Euclidean distance
# reads the mapped spectrum, and eval exits 2
work=$(mktemp -d)
spdalign synth --output-dir "$work/data" --dim 6 --classes 3 --per-class 8 \
  --noise 0.3 --seed 1
python -c "import sys, numpy as np; from spdalign.fileio import save_transform; from spdalign.optimizer import initial_transform; save_transform(sys.argv[1], initial_transform(6, 3, 0) * [1.0, 1.0, 1e-7])" "$work/W.txt"
for metric in aim stein; do
  spdalign eval --manifest "$work/data/manifest.txt" --metric "$metric" \
    --splits 10 --transform "$work/W.txt" > "$work/$metric-eval.txt"
  cat "$work/$metric-eval.txt"
  python -c "import sys; from spdalign.evaluate import knn_classify, repeated_split_eval, split; from spdalign.fileio import load_dataset, load_transform; data, _, _ = load_dataset(sys.argv[1]); W = load_transform(sys.argv[2]); m = sys.argv[3]; out = open(sys.argv[4]).read(); s = repeated_split_eval(data, m, repeats=10, seed=0, W=W); bad = [r for r in range(10) if s.transformed[r] != knn_classify(*split(data, 0.5, r), m, W=W).accuracy]; mean, std = s.transformed_mean_std; bad += [] if f'transformed 1-NN ({m}): mean={mean:.4f} std={std:.4f} over 10 split(s)' in out else ['printed']; print(m, 'mismatches:', bad); sys.exit(int(bool(bad)))" \
    "$work/data/manifest.txt" "$work/W.txt" "$metric" "$work/$metric-eval.txt"
done
spdalign eval --manifest "$work/data/manifest.txt" --metric lem --splits 10 \
  --transform "$work/W.txt" 2> "$work/err.txt" && code=0 || code=$?
cat "$work/err.txt"
test "$code" = 2
grep -F "numerical failure: sample 0 has min eigenvalue" "$work/err.txt"
