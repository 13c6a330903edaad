#!/usr/bin/env bash
# no command uses numpy.ma, and importing it costs every fresh
# process set-up time and about 1 MB (numpy.matrixlib must not match);
# the runtime is numpy-only: this step runs after the benchmark
# harness's SciPy install, so a stray import of scipy would succeed,
# and the grep below is what fails it
work=$(mktemp -d)
spdalign synth --output-dir "$work/data" --dim 6 --classes 3 --per-class 6 --seed 1
# dim 20 and 50 samples: every affine-invariant distance pass of
# this train spans several blocks
spdalign synth --output-dir "$work/wide" --dim 20 --classes 5 --per-class 10 --seed 1
for args in \
  "train --manifest $work/data/manifest.txt --target-dim 2 --max-iters 3 --output-dir $work/out" \
  "eval --manifest $work/data/manifest.txt --splits 4 --transform $work/out/W.txt" \
  "gradcheck --instances 1" \
  "train --manifest $work/wide/manifest.txt --metric aim --target-dim 5 --max-iters 3 --output-dir $work/wide-out"; do
  python -X importtime -m spdalign.cli $args > /dev/null 2> "$work/imports.txt"
  if grep -E '\| +numpy\.ma$' "$work/imports.txt"; then
    echo "imported numpy.ma: $args"; exit 1
  fi
  if grep -E '\| +scipy(\.|$)' "$work/imports.txt"; then
    echo "imported scipy: $args"; exit 1
  fi
  # no command needs an executor, nor the logging it imports
  if grep -E '\| +(concurrent\.futures|logging)(\.|$)' "$work/imports.txt"; then
    echo "imported concurrent.futures or logging: $args"; exit 1
  fi
done
# importing the package and its loader must not import the graph,
# metric, training, evaluation or synthesis code
python -X importtime -c "import spdalign; from spdalign.fileio import load_dataset" \
  2> "$work/imports.txt"
if grep -E '\| +spdalign\.(metrics|graphs|optimizer|objective|evaluate|descriptors)$' \
    "$work/imports.txt"; then
  echo "loading a dataset imported more than it uses"; exit 1
fi
grep -E '\| +spdalign\.fileio$' "$work/imports.txt"
