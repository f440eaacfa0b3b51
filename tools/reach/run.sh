#!/usr/bin/env bash
# make reach: the census of code no program runs.
#
# Builds every program of the repo (cmd/*, examples/*, bench/e2e) with
# statement coverage of every taskprov package, drives each through the
# invocations below, and hands the merged profile to the root TestReach,
# which fails on any function under internal/ that none of them executed
# unless REACH.txt lists it with a reason (and on a listed function that ran
# or is gone, or a package no program links).
#
#   bash tools/reach/run.sh     # what make reach runs
#
# Everything it writes lands under .reach_build/ (git-ignored): the covered
# binaries, the profile, and each invocation's output and data in work/.
set -euo pipefail

root=$(cd "$(dirname "$0")/../.." && pwd)
cd "$root"
build=$root/.reach_build
rm -rf "$build"
mkdir -p "$build/bin" "$build/cover" "$build/work"
bin=$build/bin
work=$build/work
export GOCOVERDIR=$build/cover
start=$(date +%s)

pids=()
cleanup() {
	for p in "${pids[@]}"; do kill "$p" 2>/dev/null || true; done
}
trap cleanup EXIT

step() { echo "reach: $*" >&2; }

# run NAME CMD...: one program invocation, its output kept in work/NAME.log.
run() {
	local name=$1
	shift
	step "$name"
	if ! "$@" >"$work/$name.log" 2>&1; then
		echo "reach: $name failed: $*" >&2
		tail -c 2000 "$work/$name.log" >&2
		exit 1
	fi
}

# daemon NAME PATTERN CMD...: start a long-running program in the background
# and wait until its log matches PATTERN; its PID lands in $daemon_pid.
daemon() {
	local name=$1 pattern=$2
	shift 2
	step "$name (background)"
	"$@" >"$work/$name.log" 2>&1 &
	daemon_pid=$!
	pids+=("$daemon_pid")
	for _ in $(seq 1 100); do
		if grep -qs "$pattern" "$work/$name.log"; then return; fi
		if ! kill -0 "$daemon_pid" 2>/dev/null; then break; fi
		sleep 0.1
	done
	echo "reach: $name did not come up" >&2
	cat "$work/$name.log" >&2
	exit 1
}

# addr NAME PREFIX: the host:port printed right after PREFIX in NAME's log.
addr() {
	local m
	m=$(grep -o "$2[0-9.:]*" "$work/$1.log" | head -1)
	echo "${m#"$2"}"
}

# stop PID: interrupt a daemon and wait for it, so it writes its coverage.
stop() {
	kill -INT "$1"
	wait "$1" || true
}

step "building covered programs"
for d in cmd/* examples/*; do
	go build -cover -coverpkg=taskprov/... -o "$bin/$(basename "$d")" "./$d"
done
go build -C bench/e2e -cover -coverpkg=taskprov/... -o "$bin/e2e" .
built=$(date +%s)

tp=$bin/taskprov
pr=$bin/perfrecup
cd "$work"

# The paper's three workflows with the live monitor, into a durable log.
for w in imageprocessing resnet152 xgboost; do
	run "run-$w" "$tp" run -workflow "$w" -seed 3 -out runs -data-dir data -live
done
run run-force "$tp" run -workflow imageprocessing -seed 3 -out runs -data-dir data -force -live
run run-cluster "$tp" run -workflow imageprocessing -seed 5 -out runs -data-dir cluster -cluster 3 -replication 2
# A broker of the cluster dies and comes back, and appends to one topic fail
# for a while: failover, catch-up and the degraded-producer warnings.
run run-cluster-chaos "$tp" run -workflow imageprocessing -seed 15 -out runs -data-dir cluster-chaos -cluster 3 -replication 2 \
	-chaos "broker node=1 at=3s restart=4s; wal topic=task-transitions after=3 count=40"
run run-kill "$tp" run -workflow imageprocessing -seed 7 -out runs -data-dir kill -proxy-threshold 1048576 \
	-chaos "kill worker=2 at=6s restart=4s" -speculate -live
run run-brownout "$tp" run -workflow imageprocessing -seed 9 -out runs \
	-chaos "slow worker=1 at=2s factor=6 until=20s" -speculate
run run-link-brownout "$tp" run -workflow imageprocessing -seed 13 -out runs \
	-chaos "net src=0 dst=1 factor=4 at=2s until=10s"
step "run-scheduler-kill"
if "$tp" run -workflow imageprocessing -seed 11 -out runs -data-dir sched -proxy-threshold 1048576 \
	-chaos "scheduler at=30s" >"$work/run-scheduler-kill.log" 2>&1; then
	echo "reach: a scheduler kill must end the run with an error" >&2
	exit 1
fi
run resume "$tp" resume -out runs sched/imageprocessing-0011
# The same crash on a replicated cluster: its resume reopens the cluster's
# dir, recovering every node's log and reconciling the replicas.
step "run-scheduler-kill-cluster"
if "$tp" run -workflow imageprocessing -seed 17 -out runs -data-dir sched-cluster -cluster 3 -replication 2 \
	-chaos "scheduler at=30s" >"$work/run-scheduler-kill-cluster.log" 2>&1; then
	echo "reach: a scheduler kill must end the clustered run with an error" >&2
	exit 1
fi
run resume-cluster "$tp" resume -out runs sched-cluster/imageprocessing-0017
run list "$tp" list
run watch-data-dir "$tp" watch -data-dir data/imageprocessing-0003 -once -json

# Every perfrecup command over the run dirs and the data dirs.
ip=runs/imageprocessing-0003
rn=runs/resnet152-0003
xg=runs/xgboost-0003
run pr-table1 "$pr" table1 "$ip" "$rn" "$xg"
run pr-phases "$pr" phases "$ip" "$rn" "$xg" data/imageprocessing-0003
run pr-iotimeline "$pr" iotimeline "$ip"
run pr-comm "$pr" comm "$rn"
run pr-tasks "$pr" tasks "$xg"
run pr-warnings "$pr" warnings "$xg"
run pr-lineage "$pr" lineage "$xg" -prefix getitem__get_categories
for v in executions transitions transfers warnings dxt posix taskmeta heartbeats taskio proxy critpath speculation; do
	run "pr-export-$v" "$pr" export runs/imageprocessing-0007 -view "$v"
done
run pr-window "$pr" window "$ip" -from 10 -to 40
run pr-compare "$pr" compare "$ip" runs/imageprocessing-0005
run pr-darshan "$pr" darshan "$rn"
for f in iotimeline comm warnings phases critpath; do
	run "pr-svg-$f" "$pr" svg "$ip" -figure "$f" -o "svg-$f.svg"
done
run pr-correlate "$pr" correlate "$xg"
run pr-heatmap "$pr" heatmap "$ip"
run pr-cluster "$pr" cluster cluster/imageprocessing-0005
run pr-proxy "$pr" proxy kill/imageprocessing-0007
run pr-speculate "$pr" speculate runs/imageprocessing-0009
run pr-metadata "$pr" metadata "$ip"
run pr-critpath "$pr" critpath data/imageprocessing-0003
run pr-whatif "$pr" whatif "$ip" -scenario baseline -scenario "workers=4 net=0.5 pfs=2 proxy=off steal=off"
run pr-whatif-json "$pr" whatif cluster/imageprocessing-0005 -scenario "threads=4 proxy=1048576 steal=on" -json

# curl NAME HOST:PORT: the live HTTP endpoints. /events streams until the
# client leaves, so curl gives up on it after a second (exit 28).
curl_live() {
	run "$1-snapshot" curl -sf "http://$2/snapshot"
	run "$1-metrics" curl -sf "http://$2/metrics"
	step "$1-events"
	curl -s --max-time 1 "http://$2/events" >"$work/$1-events.log" || [ $? -eq 28 ]
	grep -q "^event: snapshot" "$work/$1-events.log"
}

# The live HTTP endpoints of a watcher over a finished durable log.
daemon watch-http "serving on" "$tp" watch -data-dir data/imageprocessing-0003 -http 127.0.0.1:0
curl_live curl-watch "$(addr watch-http "serving on http://")"
stop "$daemon_pid"

# mofkad refuses a path that holds no event log, and creates nothing there.
step "refused-mofkad"
if "$bin/mofkad" -listen 127.0.0.1:0 -data-dir no-such-log >"$work/refused-mofkad.log" 2>&1 || [ -e no-such-log ]; then
	echo "reach: mofkad must refuse a path that is not a log, and leave it absent" >&2
	exit 1
fi
# mofkad serves finished logs in place, read-only — a standalone run's data
# dir, then a cluster run's, each read once over TCP by watch -broker — so
# the identity manifest holds both dirs to the bytes the runs left.
daemon mofkad-served "serving on" "$bin/mofkad" -listen 127.0.0.1:0 -data-dir data/imageprocessing-0003
served=$daemon_pid
m=$(addr mofkad-served "serving on ")
run watch-broker "$tp" watch -broker "$m" -once
daemon watch-broker-http "serving on" "$tp" watch -broker "$m" -http 127.0.0.1:0
curl_live curl-watch-broker "$(addr watch-broker-http "serving on http://")"
stop "$daemon_pid"
stop "$served"
daemon mofkad-cluster "serving on" "$bin/mofkad" -listen 127.0.0.1:0 -data-dir cluster/imageprocessing-0005
served=$daemon_pid
run watch-gateway "$tp" watch -broker "$(addr mofkad-cluster "serving on ")" -once -json
stop "$served"

# The examples, then every lane of the end-to-end benchmark, traced.
for d in "$root"/examples/*; do
	run "example-$(basename "$d")" "$bin/$(basename "$d")"
done
ran=$(date +%s)
for lane in sim-only collect-mem collect-durable analyze; do
	run "e2e-$lane" "$bin/e2e" -workload "$lane" -smoke -trace 1 -tmp "$work/e2e"
done
e2e=$(date +%s)

cd "$root"
go tool covdata textfmt -i="$GOCOVERDIR" -o="$build/cover.txt"
{
	go list -deps ./cmd/... ./examples/...
	go list -C bench/e2e -deps .
} | sort -u >"$build/linked.txt"
status=0
go test -count=1 -v -run '^TestReach$' . -args "$build" |
	grep -v '^=== RUN' || status=$?
echo "reach: $(( built - start )) s covered builds, $(( ran - built )) s program runs, $(( e2e - ran )) s e2e smoke lanes, $(( $(date +%s) - start )) s wall"
exit $status
