#!/usr/bin/env sh
# Offline CI gate. The stage list lives in one place — `xtask ci`
# (xtask/src/main.rs) — which this script and the GitHub Actions
# workflow both delegate to, so the local gate and the hosted pipeline
# cannot drift. Every stage runs with no network access.
#
# Pass-through: `./ci.sh --skip goldens`, `./ci.sh --json times.json`,
# etc. Unknown stage names after --skip are hard errors (the gate lists
# the valid stages and exits non-zero), so a typo cannot silently run —
# or silently skip — the wrong stage.
set -eu

cd "$(dirname "$0")"

exec cargo run -q -p xtask -- ci "$@"
