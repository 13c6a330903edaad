#!/usr/bin/env bash
# a setting comes from its flag, else from --config, else from the
# command's default: a config file alone, and a config plus an
# overriding flag, must train and evaluate as the equivalent flags
work=$(mktemp -d)
spdalign synth --output-dir "$work/data" --dim 6 --classes 3 --per-class 6 --seed 1
manifest="$work/data/manifest.txt"
for metric in stein lem; do
  spdalign train --manifest "$manifest" --metric "$metric" --target-dim 2 \
    --max-iters 3 --seed 4 --vw 2 --output-dir "$work/$metric-flags"
done
printf '{"manifest": "%s", "output_dir": "%s", "metric": "stein", "target_dim": 2, "max_iters": 3, "seed": 4, "vw": 2}\n' \
  "$manifest" "$work/config" > "$work/train.json"
spdalign train --config "$work/train.json"
cmp "$work/stein-flags/W.txt" "$work/config/W.txt"
cmp "$work/stein-flags/trace.txt" "$work/config/trace.txt"
sed "s#$work/config#$work/override#" "$work/train.json" > "$work/override.json"
spdalign train --config "$work/override.json" --metric lem
cmp "$work/lem-flags/W.txt" "$work/override/W.txt"
cmp "$work/lem-flags/trace.txt" "$work/override/trace.txt"
spdalign eval --manifest "$manifest" --metric stein --seed 4 --splits 4 \
  --transform "$work/stein-flags/W.txt" > "$work/eval-flags.txt"
spdalign eval --config "$work/train.json" --splits 4 \
  --transform "$work/stein-flags/W.txt" > "$work/eval-config.txt"
cmp "$work/eval-flags.txt" "$work/eval-config.txt"
cat "$work/eval-config.txt"
