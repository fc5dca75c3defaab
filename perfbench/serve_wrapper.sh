#!/bin/sh
# Worker wrapper for the fleet_mix workload: fleet::Router spawns this
# script as its serve binary. It records the worker's pid (for peak RSS),
# gives each worker its own trace file in traced runs (two workers sharing
# one PPG_TRACE would write the same file), then execs the real ppg_serve
# with the router's arguments. exec keeps the pid and the listening socket
# the router passes as fd 3.
if [ -n "$PPG_PERFBENCH_PID_DIR" ]; then
  : > "$PPG_PERFBENCH_PID_DIR/$$.pid"
fi
if [ -n "$PPG_PERFBENCH_TRACE_DIR" ]; then
  PPG_TRACE="$PPG_PERFBENCH_TRACE_DIR/worker.$$.trace.json"
  PPG_METRICS=1
  export PPG_TRACE PPG_METRICS
else
  unset PPG_TRACE PPG_METRICS
fi
exec "$PPG_PERFBENCH_SERVE" "$@"
