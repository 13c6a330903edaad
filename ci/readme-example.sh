#!/usr/bin/env bash
# the README's python block must run as printed
work=$(mktemp -d)
sed -n '/^```python$/,/^```$/{/^```/d;p}' README.md > "$work/example.py"
test -s "$work/example.py"
python3 "$work/example.py"
