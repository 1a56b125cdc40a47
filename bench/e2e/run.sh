#!/bin/sh
# Build the benchmark from source and run it from the repository root;
# every argument goes to main.exe (see README.md).
set -e
cd "$(dirname "$0")/../.."
exec dune exec --root . --display quiet --no-print-directory -- ./bench/e2e/main.exe "$@"
