#!/usr/bin/env bash
# Soak report gate: run one dqbench soak and compare the report line it
# prints on stdout with the pinned one in results/soak_seed1.txt. A soak
# is deterministic for a fixed -fault-seed, so any difference is a change
# in what the crash/recovery cycle does. Only the chaos soak's scrub page
# count is masked: it varies from run to run.
#
#   scripts/soak-gate.sh <line> <dqbench soak flags…>
#
# <line> is the 1-based line of results/soak_seed1.txt pinned for the flags.
set -euo pipefail

line=$1
shift
cd "$(dirname "$0")/.."
mask() { sed -E 's/scrub passes \([0-9]+ pages/scrub passes (N pages/'; }
got=$(go run ./cmd/dqbench "$@" | mask)
want=$(sed -n "${line}p" results/soak_seed1.txt | mask)
if [ "$got" != "$want" ]; then
  echo "soak report for dqbench $* differs from results/soak_seed1.txt line $line:" >&2
  echo "  pinned: $want" >&2
  echo "  got:    $got" >&2
  echo "the soaks are deterministic for a fixed seed: if the change is intended, re-record the line deliberately" >&2
  exit 1
fi
echo "soak report matches results/soak_seed1.txt line $line"
