#!/usr/bin/env bash
python3 perfbench/selftest.py
