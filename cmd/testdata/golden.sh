#!/bin/sh
# cli-golden: the multi-run tools' deterministic outputs at h=2, compared
# byte for byte with the *.golden files beside this script (recorded before
# the tools were moved onto one run description, one batch and one lease
# runner), plus input the tools must refuse. Run from anywhere; -update
# rewrites the golden files.
set -eu
cd "$(dirname "$0")/../.."
golden=cmd/testdata
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
go build -o "$tmp/bin/" ./cmd/dfsim ./cmd/dfsweep ./cmd/dfexperiments ./cmd/dfsched
net="-h 2 -warmup 200 -measure 600"

"$tmp/bin/dfsweep" $net -pattern ADVc -mechanisms MIN,In-Trns-MM -loads 0.1,0.4 -seeds 2 \
  -quiet -csv "$tmp/dfsweep.csv" > "$tmp/dfsweep.txt" 2> /dev/null
# The fairness and breakdown reports keep the file names of the two tools
# they replaced (dffair, dfbreakdown), so their golden files are unchanged.
"$tmp/bin/dfsweep" -report fair $net -pattern ADVc -mechanisms Obl-RRG,In-Trns-MM -loads 0.4 -seeds 2 \
  -priority=false -quiet > "$tmp/dffair.txt" 2> /dev/null
"$tmp/bin/dfsweep" -report breakdown $net -pattern ADVc -mechanisms In-Trns-MM -loads 0.1,0.4 -seeds 1 \
  -quiet -csv "$tmp/dfbreakdown.csv" > "$tmp/dfbreakdown.txt" 2> /dev/null
# dfexperiments' stdout carries wall-clock; its CSVs do not.
"$tmp/bin/dfexperiments" $net -mechanisms MIN,In-Trns-MM -loads 0.1,0.4 -seeds 1 \
  -quiet -slowest 0 -out "$tmp/exp" > /dev/null
for f in "$tmp"/exp/*.csv; do
  echo "== $(basename "$f")"
  cat "$f"
done > "$tmp/dfexperiments.csvs"
"$tmp/bin/dfsched" -h 2 -warmup 200 -generate 300 -gen-arrival 25 -gen-dur-median 200 \
  -disciplines fcfs,backfill,easy -seeds 2 -out "$tmp/dfsched.json" > /dev/null
# The replay path (-job/-trace, and the built-in demo trace). Its -json form
# carries wall-clock; the text form does not. The -job trace uses all three
# duration kinds and allocation policies and a bursty phase; under EASY,
# "head" blocks behind "big", "bf" backfills at once and "q" has to queue
# until "sp" reaches its packet target.
replay="-h 2 -warmup 200 -measure 3000 -seeds 2"
{
  "$tmp/bin/dfsched" $replay -discipline easy \
    -job name=big,nodes=40,alloc=consecutive,load=0.3,arrival=0,duration=1500 \
    -job name=sp,nodes=24,alloc=spread,first=4,load=0.2,arrival=50,duration=400,dkind=packets \
    -job name=head,nodes=36,alloc=random,arrival=100,duration=600 \
    -job name=bf,nodes=8,alloc=random,arrival=150,duration=300 \
    -job name=q,nodes=16,arrival=200,duration=2000 \
    -job name=burst,nodes=8,load=0.5,phase=bursty,period=600,duty=0.5,arrival=300 \
    -job name=late,nodes=12,alloc=spread,arrival=1600,duration=150,dkind=packets \
    -job name=tail,nodes=8,alloc=random,arrival=1700,duration=5000
  echo "== demo trace, fcfs"
  "$tmp/bin/dfsched" $replay -discipline fcfs
} > "$tmp/dfsched-replay.txt"

status=0
# Input a tool must refuse, and say why on stderr. The scheduler: a cycle
# budget that would wrap the departure cycle, generator parameters no clamp
# can repair, and a -generate checkpoint resumed under another network.
# dfsweep and dfexperiments: the deleted reuse flags. dfsweep: run
# descriptions no point can run (checked once, by sim.Config.Validate) —
# with dfsim, values the core would truncate to 32 bits — load and seed
# axes that would never finish expanding or that run nothing, and reports
# over a grid their tables have no column for.
# Input the scheduler must survive: a size median far past the cap (every
# job is the cap, so the machine holds one job at a time), and a trace that
# drains inside the warm-up (its length is the last departure + 1).
refused() {
  tool=$1; want=$2; shift 2
  if "$tmp/bin/$tool" "$@" > /dev/null 2> "$tmp/stderr" || ! grep -qF -e "$want" "$tmp/stderr"; then
    echo "$tool $*: want a non-zero exit and \"$want\" on stderr, got:"; cat "$tmp/stderr"; status=1
  fi
}
if [ "${1:-}" != -update ]; then
  refused dfsched 'job 0: cycle budget' -h 2 -warmup 100 -measure 400 \
    -job nodes=8,arrival=5,duration=9223372036854775807 -job nodes=8,arrival=10,duration=100
  refused dfsched 'InterArrival must be > 0 and finite' -h 2 -warmup 100 -generate 50 -gen-arrival +Inf -disciplines fcfs
  refused dfsched 'sigmas must be ≥ 0 and finite' -h 2 -warmup 100 -generate 50 -gen-dur-sigma NaN -disciplines fcfs
  gen="-h 2 -warmup 100 -generate 20 -gen-arrival 25 -gen-dur-median 200 -disciplines fcfs -checkpoint $tmp/s.ckpt"
  "$tmp/bin/dfsched" $gen > /dev/null
  refused dfsched 'produced by a different configuration' $gen -global-lat 400
  point="-mechanisms MIN -loads 0.1 -seeds 1 -quiet"
  refused dfsweep 'flag provided but not defined: -reuse' $net $point -reuse warm
  refused dfexperiments 'flag provided but not defined: -rewarm' $net $point -rewarm 0
  refused dfsweep 'congestion threshold' $net $point -threshold 1.5
  refused dfsweep 'overflows the cycle counter' -h 2 -warmup 9223372036854775807 -measure 1 $point
  refused dfsim 'link latencies must be at most 2147483647 cycles' -h 2 -warmup 100 -measure 200 -global-lat 2147483648
  refused dfsweep 'link latencies must be at most 2147483647 cycles' $net $point -local-lat 2147483648
  refused dfsweep 'injection queue of 2147483648 packets exceeds 2147483647 phits' $net $point -inj-queue 2147483648
  point="-mechanisms MIN -quiet"
  refused dfsweep 'bad range spec "0:inf:0.1"' $net $point -loads 0:inf:0.1
  refused dfsweep 'seed count -1 outside' $net $point -loads 0.1 -seeds -1
  refused dfsweep 'seed count 0 outside' $net $point -loads 0.1 -seeds 0
  refused dfsweep 'unknown report "histogram"' $net $point -loads 0.1 -report histogram
  refused dfsweep 'one pattern at one load, got 1 patterns and 2 loads' $net $point -loads 0.1,0.4 -report fair
  refused dfsweep 'one pattern at one load, got 2 patterns and 1 loads' $net $point -pattern UN,ADVc -loads 0.4 -report fair
  refused dfsweep '-report fair has no CSV' $net $point -loads 0.4 -report fair -csv "$tmp/fair.csv"
  refused dfsweep 'one mechanism under one pattern, got 2 mechanisms' $net -mechanisms MIN,In-Trns-MM -quiet -loads 0.4 -report breakdown
  refused dfsweep 'one mechanism under one pattern, got 1 mechanisms and 2 patterns' $net $point -pattern UN,ADVc -loads 0.4 -report breakdown
  refused dfsweep '-group 9 outside [0, 9)' $net $point -loads 0.4 -report fair -group 9
  refused dfsweep '-group -1 outside' $net $point -loads 0.4 -report fair -group -1
  "$tmp/bin/dfsched" -h 2 -warmup 100 -generate 50 -gen-arrival 25 -gen-dur-median 200 -gen-nodes-median 1e11 \
    -disciplines fcfs -json > "$tmp/cap.json"
  if ! grep -q '"peak_running": 1,' "$tmp/cap.json"; then
    echo "dfsched -gen-nodes-median 1e11: jobs are not capped at the machine:"; cat "$tmp/cap.json"; status=1
  fi
  "$tmp/bin/dfsched" -h 2 -generate 3 -gen-arrival 5 -gen-dur-median 10 -gen-dur-sigma 0 -disciplines fcfs -json \
    > "$tmp/drain.json"
  if ! grep -q '"ran_cycles": 25,' "$tmp/drain.json"; then
    echo "dfsched: a trace that drains at cycle 24 does not report 25 cycles run:"; cat "$tmp/drain.json"; status=1
  fi
fi
for f in dfsweep.txt dfsweep.csv dffair.txt dfbreakdown.txt dfbreakdown.csv dfexperiments.csvs dfsched.json dfsched-replay.txt; do
  if [ "${1:-}" = -update ]; then
    cp "$tmp/$f" "$golden/$f.golden"
  elif ! cmp "$tmp/$f" "$golden/$f.golden"; then
    status=1
  fi
done
exit $status
