#!/usr/bin/env bash
work=$(mktemp -d)
spdalign synth --output-dir "$work/data" --dim 6 --classes 3 --per-class 6 --seed 1
python -c "import sys, numpy as np; from spdalign.fileio import save_transform; save_transform(sys.argv[1], np.column_stack([np.ones(6), 2 * np.ones(6)]))" "$work/rank-deficient.txt"
expect() {
  want=$1; shift
  "$@" && got=0 || got=$?
  if [ "$got" != "$want" ]; then
    echo "expected exit $want, got $got: $*"; exit 1
  fi
}
expect 1 spdalign eval --manifest "$work/data/manifest.txt" --transform "$work/rank-deficient.txt"
# a transform of the wrong dimension is named by its file
python -c "import sys, numpy as np; from spdalign.fileio import save_transform; save_transform(sys.argv[1], np.eye(5, 2))" "$work/W5.txt"
expect 1 spdalign eval --manifest "$work/data/manifest.txt" --transform "$work/W5.txt" \
  2> "$work/err.txt"
grep -F "$work/W5.txt: transform has 5 rows, samples have dim 6" "$work/err.txt"
# a finite transform whose product overflows the samples is a
# numerical failure naming the transform, with no numpy warning even
# when warnings are errors
python -c "import sys, numpy as np; from spdalign.fileio import save_transform; save_transform(sys.argv[1], np.full((6, 1), 1e160))" "$work/W-huge.txt"
expect 2 python -W error -c "from spdalign.cli import entry; entry()" eval \
  --manifest "$work/data/manifest.txt" --transform "$work/W-huge.txt" 2> "$work/err.txt"
grep -F "numerical failure: transform maps sample 0 to non-finite values" "$work/err.txt"
# a synth noise past what float64 keeps positive definite is bad input
# naming the noise, with no numpy warning even when warnings are errors
expect 1 spdalign synth --output-dir "$work/noisy" --noise 3 --seed 0 2> "$work/err.txt"
grep -F "noise 3" "$work/err.txt"
expect 1 python -W error -c "from spdalign.cli import entry; entry()" synth \
  --output-dir "$work/noisy" --noise 1000 2> "$work/err.txt"
if grep -E "Traceback|RuntimeWarning" "$work/err.txt"; then exit 1; fi
grep -F "noise 1000" "$work/err.txt"
# an infinite tolerance from a JSON config is rejected before the output
# directory is made
printf '{"grad_tol": Infinity}\n' > "$work/inf-tol.json"
expect 1 spdalign train --manifest "$work/data/manifest.txt" --target-dim 2 \
  --output-dir "$work/inf-tol" --config "$work/inf-tol.json"
test ! -e "$work/inf-tol"
expect 1 spdalign train --manifest "$work/data/manifest.txt" --target-dim 2 \
  --output-dir "$work/out" --seed -1
expect 1 spdalign train --manifest "$work/data/manifest.txt" --target-dim 2 \
  --output-dir "$work/out" --beta nan
expect 1 spdalign train --manifest "$work/data/manifest.txt" --target-dim 2 \
  --output-dir "$work/out" --beta inf
expect 1 spdalign gradcheck --instances 0
# train has no --strict: a usage error, before the output directory
expect 1 spdalign train --manifest "$work/data/manifest.txt" --target-dim 2 \
  --output-dir "$work/strict" --strict
test ! -e "$work/strict"
# an output directory that is a file fails before the dataset loads
touch "$work/taken"
expect 1 spdalign train --manifest "$work/data/manifest.txt" --target-dim 2 \
  --output-dir "$work/taken" 2> "$work/err.txt"
grep -F "cannot create output directory $work/taken" "$work/err.txt"
# a stdout that cannot take train's report costs the report only: both
# outputs are written as in a normal run, and stderr holds one error
# line and no traceback
spdalign train --manifest "$work/data/manifest.txt" --target-dim 2 \
  --output-dir "$work/normal" > /dev/null
expect 1 spdalign train --manifest "$work/data/manifest.txt" --target-dim 2 \
  --output-dir "$work/full" > /dev/full 2> "$work/err.txt"
cmp "$work/normal/W.txt" "$work/full/W.txt"
cmp "$work/normal/trace.txt" "$work/full/trace.txt"
if grep -F Traceback "$work/err.txt"; then exit 1; fi
grep -Fx "error: cannot write to stdout: [Errno 28] No space left on device" "$work/err.txt"
# so does a --help that cannot be written
expect 1 spdalign train --help > /dev/full 2> "$work/err.txt"
grep -Fx "error: cannot write to stdout: [Errno 28] No space left on device" "$work/err.txt"
# load-path faults, each named on stderr: undecodable bytes in a
# sample or a config file, and a non-numeric strict-lower token
# (row 2, column 0: line 4) whose mirror on line 2 is numeric
sample="$work/data/samples/s0003.txt"
cp "$sample" "$work/s0003.txt"
printf '\xff\n' >> "$sample"
expect 1 spdalign train --manifest "$work/data/manifest.txt" --target-dim 2 \
  --output-dir "$work/out" 2> "$work/err.txt"
grep -F "$sample: not UTF-8 text" "$work/err.txt"
# a bad byte past text mode's 8 KB decode chunks, named by its
# offset in the file: 2 header bytes, then "# " and 12,000 x's
{ printf '6\n# '; head -c 12000 /dev/zero | tr '\0' x; printf '\xff\n'; } > "$sample"
expect 1 spdalign train --manifest "$work/data/manifest.txt" --target-dim 2 \
  --output-dir "$work/out" 2> "$work/err.txt"
grep -F "$sample: not UTF-8 text: 'utf-8' codec can't decode byte 0xff in position 12004" "$work/err.txt"
printf '{"metric": "lem\xff"}\n' > "$work/config.json"
expect 1 spdalign train --manifest "$work/data/manifest.txt" --target-dim 2 \
  --output-dir "$work/out" --config "$work/config.json" 2> "$work/err.txt"
grep -F "$work/config.json: not UTF-8 text" "$work/err.txt"
sed '4s/^[^ ]*/zebra/' "$work/s0003.txt" > "$sample"
expect 1 spdalign train --manifest "$work/data/manifest.txt" --target-dim 2 \
  --output-dir "$work/out" 2> "$work/err.txt"
grep -F "$sample:4: non-numeric value" "$work/err.txt"
# an indefinite sample is bad input too, named by its manifest
python -c "import sys, numpy as np; from spdalign.fileio import save_matrix; save_matrix(sys.argv[1], np.diag([1.0, -1, 2, 3, 4, 5]))" "$sample"
expect 1 spdalign train --manifest "$work/data/manifest.txt" --target-dim 2 \
  --output-dir "$work/out" 2> "$work/err.txt"
grep -F "$work/data/manifest.txt: sample 3 has min eigenvalue" "$work/err.txt"
grep -F "(id s0003, file $sample)" "$work/err.txt"
# gradcheck takes its metric from the config file
printf '{"metric": "lem"}\n' > "$work/config.json"
spdalign gradcheck --instances 1 --config "$work/config.json" > "$work/out.txt"
cat "$work/out.txt"
test "$(grep -c ': max relative gradient error' "$work/out.txt")" = 1
grep '^lem: max relative gradient error' "$work/out.txt"
# a set scaled so that each sample's largest entry is 1e308 holds finite
# entries only, but its traces overflow: bad input naming the first
# sample's file, with no numpy warning ahead of the error
spdalign synth --output-dir "$work/near-max" --dim 10 --classes 3 --per-class 6 --seed 0
python -c "import glob, sys, numpy as np; from spdalign.fileio import save_matrix; [save_matrix(p, X * (1e308 / np.abs(X).max())) for p in glob.glob(sys.argv[1] + '/samples/*.txt') for X in [np.loadtxt(p, skiprows=1, ndmin=2)]]" "$work/near-max"
expect 1 spdalign train --manifest "$work/near-max/manifest.txt" --target-dim 3 \
  --output-dir "$work/near-max-out" 2> "$work/err.txt"
cat "$work/err.txt"
if grep -F Warning "$work/err.txt"; then exit 1; fi
grep -F "sample 0 has trace inf: its scale is out of range for float64" "$work/err.txt"
grep -F "(id s0000, file $work/near-max/samples/s0000.txt)" "$work/err.txt"
