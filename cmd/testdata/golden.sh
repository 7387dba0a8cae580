#!/bin/sh
# cli-golden: the multi-run tools' deterministic outputs at h=2, compared
# byte for byte with the *.golden files beside this script (recorded before
# the tools were moved onto one run description, one batch and one lease
# runner). Run from anywhere; -update rewrites the golden files.
set -eu
cd "$(dirname "$0")/../.."
golden=cmd/testdata
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
go build -o "$tmp/bin/" ./cmd/dfsweep ./cmd/dffair ./cmd/dfbreakdown ./cmd/dfexperiments ./cmd/dfsched
net="-h 2 -warmup 200 -measure 600"

"$tmp/bin/dfsweep" $net -pattern ADVc -mechanisms MIN,In-Trns-MM -loads 0.1,0.4 -seeds 2 \
  -quiet -csv "$tmp/dfsweep.csv" > "$tmp/dfsweep.txt" 2> /dev/null
"$tmp/bin/dffair" $net -mechanisms Obl-RRG,In-Trns-MM -seeds 2 -priority=false > "$tmp/dffair.txt"
"$tmp/bin/dfbreakdown" $net -loads 0.1,0.4 -seeds 1 -csv "$tmp/dfbreakdown.csv" \
  > "$tmp/dfbreakdown.txt" 2> /dev/null
# dfexperiments' stdout carries wall-clock; its CSVs do not.
"$tmp/bin/dfexperiments" $net -mechanisms MIN,In-Trns-MM -loads 0.1,0.4 -seeds 1 \
  -quiet -slowest 0 -out "$tmp/exp" > /dev/null
for f in "$tmp"/exp/*.csv; do
  echo "== $(basename "$f")"
  cat "$f"
done > "$tmp/dfexperiments.csvs"
"$tmp/bin/dfsched" -h 2 -warmup 200 -generate 300 -gen-arrival 25 -gen-dur-median 200 \
  -disciplines fcfs,backfill,easy -seeds 2 -out "$tmp/dfsched.json" > /dev/null

status=0
for f in dfsweep.txt dfsweep.csv dffair.txt dfbreakdown.txt dfbreakdown.csv dfexperiments.csvs dfsched.json; do
  if [ "${1:-}" = -update ]; then
    cp "$tmp/$f" "$golden/$f.golden"
  elif ! cmp "$tmp/$f" "$golden/$f.golden"; then
    status=1
  fi
done
exit $status
