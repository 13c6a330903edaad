#!/usr/bin/env bash
# training and evaluation are pure functions of their inputs
# whatever the CPU affinity: every pair pass runs its blocks in order
# on the calling thread, and nothing reads the CPU count
work=$(mktemp -d)
spdalign synth --output-dir "$work/data" --dim 20 --classes 5 --per-class 10 --noise 0.2
echo "CPUs: $(nproc) unrestricted, $(taskset -c 0 nproc) under taskset -c 0"
taskset -c 0 spdalign train --manifest "$work/data/manifest.txt" --metric aim \
  --target-dim 5 --max-iters 5 --output-dir "$work/one"
spdalign train --manifest "$work/data/manifest.txt" --metric aim \
  --target-dim 5 --max-iters 5 --output-dir "$work/all"
cmp "$work/one/W.txt" "$work/all/W.txt"
cmp "$work/one/trace.txt" "$work/all/trace.txt"
taskset -c 0 spdalign eval --manifest "$work/data/manifest.txt" --metric aim \
  --splits 10 --transform "$work/all/W.txt" > "$work/eval-one.txt"
spdalign eval --manifest "$work/data/manifest.txt" --metric aim \
  --splits 10 --transform "$work/all/W.txt" > "$work/eval-all.txt"
cmp "$work/eval-one.txt" "$work/eval-all.txt"
