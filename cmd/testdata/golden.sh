#!/bin/sh
# cli-golden: the tools' deterministic outputs at h=2, compared byte for
# byte with the *.golden files beside this script (the multi-run tools'
# recorded before they were moved onto one run description, one batch and
# one lease runner; dfsim's before the dfworkload tool was folded into it),
# flags that must leave a run's output alone (-debug, -cpuprofile), plus
# input the tools must refuse. Run from anywhere; -update rewrites the
# golden files.
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
# The single-run tool: a multi-job workload report in text and JSON (with
# the solo and paired interference runs), the Section III app case spelt as
# one -job, a -spec file, JSON for two patterns and the -debug dump. The
# dfworkload.* files keep the name of the tool whose output they pinned.
# The JSON forms carry wall-clock.
jobs="-job name=a,nodes=24,alloc=consecutive -job name=b,nodes=16,alloc=spread,first=3,load=0.2
  -job name=c,nodes=16,alloc=random,pattern=PERM,load=0.6,phase=bursty,period=300,duty=0.5"
{
  "$tmp/bin/dfsim" $net -load 0.5 $jobs -interference -interference-matrix
  echo "== Section III app case"
  "$tmp/bin/dfsim" $net -load 0.3 -job name=app,nodes=24,alloc=consecutive
  echo "== -spec"
  "$tmp/bin/dfsim" $net -load 0.4 -spec $golden/workload.json -group 2
} > "$tmp/dfworkload.txt"
"$tmp/bin/dfsim" $net -load 0.5 $jobs -interference -interference-matrix -json \
  | grep -v wall_seconds > "$tmp/dfworkload.json"
{
  "$tmp/bin/dfsim" $net -mechanism MIN -pattern ADVc -load 0.3 -json
  "$tmp/bin/dfsim" $net -mechanism Src-CRG -pattern UN -load 0.5 -priority=false -json
} | grep -v wall_seconds > "$tmp/dfsim.json"
debug="$net -mechanism Src-CRG -pattern ADVc -load 0.3 -group 2"
"$tmp/bin/dfsim" $debug -debug -trace-out "$tmp/debug-trace.json" > "$tmp/dfsim-debug.txt"

status=0
# -debug is the same run as without it: it writes the same packet trace.
"$tmp/bin/dfsim" $debug -trace-out "$tmp/trace.json" > /dev/null
if ! cmp "$tmp/debug-trace.json" "$tmp/trace.json"; then
  echo "dfsim -debug -trace-out: the trace differs from the same run's without -debug"; status=1
fi
# -cpuprofile writes a profile and leaves the run alone: the same output.
prof="$net -mechanism MIN -pattern ADVc -load 0.3 -json"
"$tmp/bin/dfsim" $prof -cpuprofile "$tmp/cpu.prof" | grep -v wall_seconds > "$tmp/prof.json"
"$tmp/bin/dfsim" $prof | grep -v wall_seconds > "$tmp/noprof.json"
if [ ! -s "$tmp/cpu.prof" ]; then
  echo "dfsim -cpuprofile: no profile written"; status=1
fi
if ! cmp "$tmp/prof.json" "$tmp/noprof.json"; then
  echo "dfsim -cpuprofile: the output differs from the same run's without it"; status=1
fi
# Input a tool must refuse, and say why on stderr. The scheduler: a cycle
# budget that would wrap the departure cycle, generator parameters no clamp
# can repair, a -generate checkpoint resumed under another network, and
# flags its path would ignore (the replay's probe flags and -seed-jobs
# under -generate, the study's flags without it).
# dfsweep and dfexperiments: the deleted reuse flags. dfsweep: run
# descriptions no point can run (checked once, by sim.Config.Validate) —
# with dfsim, values the core would truncate to 32 bits, a groupskew
# model's far links among them (dfexperiments refuses them on its
# -latency-models axis too) — load and seed axes that would never finish expanding or that run nothing, and reports
# over a grid their tables have no column for. dfsim: a -trace node outside
# the machine, and flags that contradict each other or would be ignored
# (-spec with -job, -pattern with a workload, interference without one,
# -debug with -json).
# Input the scheduler must survive: a size median far past the cap (every
# job is the cap, so the machine holds one job at a time), a trace that
# drains inside the warm-up (its length is the last departure + 1), and a
# trace that -measure cuts off (its length is warm-up + measure). A study
# record is its network point's: the run's mechanism, pattern, load and
# seed, the discipline and allocation in its task, the network's throughput
# and latency in its own fields.
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
  rec=$(sed -n 2p "$tmp/s.ckpt")
  field() { printf '%s\n' "$rec" | sed -n "s/.*\"$1\":\([^,}]*\).*/\1/p"; }
  want='"task":"fcfs/consecutive","point":{"Mechanism":"In-Trns-MM","Pattern":"UN","Load":0.3,"Seed":1},"mechanism":"In-Trns-MM"'
  if ! printf '%s\n' "$rec" | grep -qF -e "$want" || [ -z "$(field throughput)" ] ||
    [ "$(field throughput)" != "$(field net_throughput)" ] || [ "$(field avg_latency)" != "$(field pkt_lat_mean)" ]; then
    echo "dfsched -checkpoint: the study record is not its network point's record:"; echo "$rec"; status=1
  fi
  refused dfsched 'produced by a different configuration' $gen -global-lat 400
  study="-h 2 -warmup 100 -generate 20 -disciplines fcfs"
  refused dfsched '-probe-every does not apply to -generate' $study -probe-every 10
  refused dfsched '-probe-out does not apply to -generate' $study -probe-out "$tmp/p.jsonl"
  refused dfsched '-seed-jobs does not apply to -generate' $study -seeds 2 -seed-jobs 1
  demo="-h 2 -warmup 100 -measure 400"
  refused dfsched '-checkpoint applies only to -generate' $demo -checkpoint "$tmp/r.ckpt" -out "$tmp/r.json"
  refused dfsched '-out applies only to -generate' $demo -out "$tmp/r.json"
  refused dfsched '-disciplines applies only to -generate' $demo -disciplines fcfs
  refused dfsched '-allocs applies only to -generate' $demo -allocs spread
  refused dfsched '-gen-arrival applies only to -generate' $demo -gen-arrival 25
  point="-mechanisms MIN -loads 0.1 -seeds 1 -quiet"
  refused dfsweep 'flag provided but not defined: -reuse' $net $point -reuse warm
  refused dfexperiments 'flag provided but not defined: -rewarm' $net $point -rewarm 0
  refused dfsweep 'congestion threshold' $net $point -threshold 1.5
  refused dfsweep 'overflows the cycle counter' -h 2 -warmup 9223372036854775807 -measure 1 $point
  refused dfsim 'link latencies must be at most 2147483647 cycles' -h 2 -warmup 100 -measure 200 -global-lat 2147483648
  refused dfsim '-trace 100000 out of range [0,72)' $net -trace 100000
  refused dfsim 'use either -spec or -job, not both' $net -spec $golden/workload.json -job nodes=8
  refused dfsim '-pattern does not apply to a -job/-spec workload' $net -pattern UN -job nodes=8
  refused dfsim '-interference and -interference-matrix need a -job or -spec workload' $net -interference
  refused dfsim '-interference and -interference-matrix need a -job or -spec workload' $net -pattern ADVc -interference-matrix
  refused dfsim '-debug prints buffer snapshots, not JSON' $net -debug -json
  refused dfsweep 'link latencies must be at most 2147483647 cycles' $net $point -local-lat 2147483648
  refused dfsweep 'link latencies must be at most 2147483647 cycles' $net $point -latency-model groupskew -global-lat 2147483000
  refused dfexperiments 'link latencies must be at most 2147483647 cycles' $net $point -latency-models groupskew -global-lat 2147483000
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
  "$tmp/bin/dfsched" -h 2 -warmup 100 -measure 300 -generate 50 -gen-arrival 25 -gen-dur-median 200 -disciplines fcfs -json \
    > "$tmp/capped.json"
  if ! grep -q '"ran_cycles": 400,' "$tmp/capped.json"; then
    echo "dfsched -measure 300: a run capped at warm-up + measure does not report 400 cycles run:"; cat "$tmp/capped.json"; status=1
  fi
fi
for f in dfsweep.txt dfsweep.csv dffair.txt dfbreakdown.txt dfbreakdown.csv dfexperiments.csvs dfsched.json dfsched-replay.txt \
  dfworkload.txt dfworkload.json dfsim.json dfsim-debug.txt; do
  if [ "${1:-}" = -update ]; then
    cp "$tmp/$f" "$golden/$f.golden"
  elif ! cmp "$tmp/$f" "$golden/$f.golden"; then
    status=1
  fi
done
exit $status
