#!/bin/sh
# Static checks gated by `make check`:
#
#   1. gofmt: every Go file in the tree must already be formatted.
#   2. go vet across the module.
#   3. staticcheck, when installed (the CI image has it; it is optional
#      locally so a plain Go toolchain can still run `make check`).
set -eu
cd "$(dirname "$0")/.."

unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "lint: files need gofmt:"
    echo "$unformatted"
    exit 1
fi

go vet ./...

if command -v staticcheck >/dev/null 2>&1; then
    staticcheck ./...
else
    echo "lint: staticcheck not installed, skipping (go vet only)"
fi

echo "lint: ok"
