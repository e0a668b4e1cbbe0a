#!/usr/bin/env bash
# Telemetry smoke: boot a dqserver, drive a little traffic through dqtop's
# probes, snapshot every observability surface into telemetry-smoke/, stop
# the server, then assert that each pattern appears on its surface. The
# files double as a record of what the surfaces looked like at this commit.
#
#   scripts/telemetry-smoke.sh <name> <server flags…> -- <surface>:<text>…
#
# <name> suffixes the files (telemetry-smoke/<surface>-<name>.{txt,json});
# -addr and -metrics are the script's to set. Surfaces: dqtop, metrics,
# telemetry, slow, slow-writes (/debug/slow?op=apply-updates), events.
# A server armed with -wal also gets dqtop's write probe.
set -euo pipefail

name=$1
shift
server_flags=()
while [ $# -gt 0 ] && [ "$1" != "--" ]; do
  server_flags+=("$1")
  shift
done
if [ "${1:-}" != "--" ]; then
  echo "usage: $0 <name> <server flags…> -- <surface>:<text>…" >&2
  exit 2
fi
shift

cd "$(dirname "$0")/.."
addr=127.0.0.1:7207
http=127.0.0.1:9107
out=telemetry-smoke
bin=$(mktemp -d)
mkdir -p "$out"
go build -o "$bin/" ./cmd/dqserver ./cmd/dqtop

"$bin/dqserver" "${server_flags[@]}" -addr "$addr" -metrics "$http" &
srv=$!
trap 'kill "$srv" 2>/dev/null || true; wait "$srv" 2>/dev/null || true; rm -rf "$bin"' EXIT
for _ in $(seq 50); do
  curl -sf "http://$http/healthz" >/dev/null && break
  sleep 0.2
done

probe=(-once -probe)
case " ${server_flags[*]} " in *" -wal "*) probe+=(-write-probe) ;; esac
for _ in $(seq 5); do "$bin/dqtop" "${probe[@]}" "$addr" >/dev/null; done
sleep 1 # a maintenance tick, when the loop is on
"$bin/dqtop" "${probe[@]}" -events 10 "$addr" | tee "$out/dqtop-$name.txt"
curl -sf "http://$http/metrics" -o "$out/metrics-$name.txt"
curl -sf "http://$http/debug/telemetry" -o "$out/telemetry-$name.json"
curl -sf "http://$http/debug/slow" -o "$out/slow-$name.json"
curl -sf "http://$http/debug/slow?op=apply-updates" -o "$out/slow-writes-$name.json"
curl -sf "http://$http/debug/events" -o "$out/events-$name.json"
kill "$srv"
wait "$srv" || true

for want in "$@"; do
  surface=${want%%:*}
  if ! grep -qF -- "${want#*:}" "$out/$surface-$name".*; then
    echo "telemetry-smoke $name: '${want#*:}' not on the $surface surface" >&2
    exit 1
  fi
done
