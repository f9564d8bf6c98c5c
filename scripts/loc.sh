#!/usr/bin/env sh
# Print the two size metrics ROADMAP aim 2 tracks per PR: Rust lines under
# crates/ and src/, and the number of public fn/struct/enum/trait items.
set -eu
cd "$(dirname "$0")/.."
lines=$(find crates src -name '*.rs' -exec cat {} + | wc -l)
items=$(find crates src -name '*.rs' -exec cat {} + |
    grep -cE '^[[:space:]]*pub (fn|struct|enum|trait) ')
echo "rust_lines $lines"
echo "pub_items $items"
