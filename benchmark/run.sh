#!/usr/bin/env bash
# One entry point for CI or a person: build once, run the untraced set, run the
# traced set, compare the untraced set against the newest committed baselines.
# Exits non-zero when a correctness gate fails or `compare` reports `worse`.
#
#   benchmark/run.sh [seed]
set -euo pipefail
cd "$(dirname "$0")/.."
seed="${1:-20040102}"

cargo build --release --offline --manifest-path benchmark/Cargo.toml
ledger="${CARGO_TARGET_DIR:-benchmark/target}/release/gossip-ledger"

"$ledger" all --seed "$seed" --out benchmark/out/set.json
"$ledger" all --seed "$seed" --trace --out benchmark/out/set-traced.json

# Baselines are named <date>-<commit>-<n>.json: the last by name is the newest,
# and the sets that share its date and commit are side a, so that `compare`
# knows their run-to-run spread.
newest="$(ls benchmark/baselines/*.json | sort | tail -n 1)"
echo "comparing against ${newest%-*.json}-*.json"
"$ledger" compare "${newest%-*.json}"-*.json vs benchmark/out/set.json
