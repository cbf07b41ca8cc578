#!/bin/sh
# CI wrapper: build, run the test suite, then smoke-test the observability
# layer end to end — `cora trace` on the quickstart workload must produce a
# parseable, non-empty Chrome trace (the trace subcommand re-parses its own
# output and exits nonzero otherwise).
set -eu

cd "$(dirname "$0")/.."

# json_field JSON KEY [OBJECT] — the value of "KEY" in the one-line JSON
# object JSON (inside its "OBJECT":{...} member when OBJECT is given): a
# number, a quoted hex digest, or a flat list of integers (printed
# comma-separated).  Exits nonzero when the key is missing or holds
# anything else, so a renamed or dropped field fails its gate instead of
# handing the gate the whole JSON line.
json_field() {
  jf_json=$1
  if [ $# -gt 2 ]; then
    jf_json=$(printf '%s\n' "$jf_json" | sed -n "s/.*\"$3\":{\([^}]*\)}.*/\1/p")
  fi
  jf_val=$(printf '%s\n' "$jf_json" | sed -n \
    -e "s/.*\"$2\":\(-\{0,1\}[0-9][0-9.eE+-]*\).*/\1/p" \
    -e "s/.*\"$2\":\"\([0-9a-f][0-9a-f]*\)\".*/\1/p" \
    -e "s/.*\"$2\":\[\([0-9][0-9,]*\)\].*/\1/p")
  test -n "$jf_val" || { echo "ci: JSON field $2 missing or malformed" >&2; exit 1; }
  printf '%s\n' "$jf_val"
}

echo "== dune build @check" >&2
dune build @check

echo "== dune runtest" >&2
dune runtest

echo "== examples" >&2
# Every example runs the public API end to end (Ragged.fill/get/unpack,
# lowering, execution); the reference-checking ones exit nonzero when
# their max error against a dense reference exceeds 1e-5.
for example in quickstart transformer_encoder triangular_ops vgemm_batching \
  ragged_conv load_balancing training_step; do
  dune exec "examples/$example.exe" > /dev/null \
    || { echo "ci: example $example failed" >&2; exit 1; }
done

echo "== cora trace quickstart" >&2
tmpdir=$(mktemp -d)
trap 'rm -rf "$tmpdir"' EXIT

dune exec bin/cora_cli.exe -- trace quickstart \
  -o "$tmpdir/trace.json" --metrics "$tmpdir/metrics.json" > "$tmpdir/summary.txt"

test -s "$tmpdir/trace.json" || { echo "ci: trace.json is empty" >&2; exit 1; }
test -s "$tmpdir/metrics.json" || { echo "ci: metrics.json is empty" >&2; exit 1; }
grep -q "interp.flops" "$tmpdir/summary.txt" \
  || { echo "ci: metrics summary missing interp counters" >&2; exit 1; }

echo "== cora bench-stream --smoke" >&2
# Replays a deterministic request stream through the serving caches; --smoke
# makes the binary self-validate (nonzero hit rates, zero prelude host work
# on hits, monotone non-increasing per-window overhead p50 after warmup) and
# exit nonzero on violation.  With --exec, every --smoke run below also
# checks every served output bitwise against one reference: a
# cache-bypassed, untuned, serial interpreter server run once per distinct
# vector, which shares no cache with the run it checks.  The JSON line is
# then parsed here as a second, independent sanity check.
dune exec bin/cora_cli.exe -- bench-stream --exec --smoke > "$tmpdir/stream.txt"

json=$(sed -n 's/^BENCH_STREAM //p' "$tmpdir/stream.txt")
test -n "$json" || { echo "ci: no BENCH_STREAM line" >&2; exit 1; }
echo "$json" | grep -q '"seed":' || { echo "ci: stream seed not documented" >&2; exit 1; }
for field in compile_hit_rate prelude_hit_rate; do
  rate=$(json_field "$json" "$field")
  awk -v r="$rate" 'BEGIN { exit (r > 0 && r <= 1) ? 0 : 1 }' \
    || { echo "ci: $field=$rate not in (0, 1]" >&2; exit 1; }
done
hostns=$(json_field "$json" prelude_host_ns_on_hits)
awk -v h="$hostns" 'BEGIN { exit (h == 0) ? 0 : 1 }' \
  || { echo "ci: prelude host work on hits is $hostns, expected 0" >&2; exit 1; }

echo "== cora bench-stream --exec --engine compiled --smoke" >&2
# Same stream, executed through the compiled closure engine.  --smoke's
# reference check fails on any bitwise output divergence from the
# interpreter, so this step proves engine parity on the serving path, not
# just in the unit tests.
dune exec bin/cora_cli.exe -- bench-stream --exec --engine compiled --smoke \
  > "$tmpdir/stream_compiled.txt"

cjson=$(sed -n 's/^BENCH_STREAM //p' "$tmpdir/stream_compiled.txt")
test -n "$cjson" || { echo "ci: no BENCH_STREAM line (compiled)" >&2; exit 1; }
echo "$cjson" | grep -q '"engine":"compiled"' \
  || { echo "ci: compiled run not labelled engine=compiled" >&2; exit 1; }
entries=$(json_field "$cjson" plan_entries)
awk -v n="$entries" 'BEGIN { exit (n > 0) ? 0 : 1 }' \
  || { echo "ci: plan memo has $entries entries, expected > 0" >&2; exit 1; }
ops=$(json_field "$cjson" scalar_ops_per_sec)
awk -v o="$ops" 'BEGIN { exit (o > 0) ? 0 : 1 }' \
  || { echo "ci: scalar_ops_per_sec=$ops, expected > 0" >&2; exit 1; }

echo "== cora bench-stream --exec --engine compiled --opt 3 --smoke" >&2
# The O3 serving level.  --smoke keeps the reference check AND fails if the
# buffer arena misses after the first window — the zero-allocation
# steady-state contract: once the first window has populated the arena's
# size classes, serving must not allocate fresh float storage.  The
# per-window miss counts are re-checked here from the JSON as an
# independent assertion.  Additionally the whole stream's output digest
# (stream_checksum: FNV-1a over every output bit of each response, summed
# mod 2^64) must equal the O0 compiled run's from the step above — a
# full-stream bitwise check across optimization levels.
dune exec bin/cora_cli.exe -- bench-stream --exec --engine compiled --opt 3 --smoke \
  > "$tmpdir/stream_o3.txt"

o3json=$(sed -n 's/^BENCH_STREAM //p' "$tmpdir/stream_o3.txt")
test -n "$o3json" || { echo "ci: no BENCH_STREAM line (opt 3)" >&2; exit 1; }
echo "$o3json" | grep -q '"opt":3' \
  || { echo "ci: O3 run not labelled opt=3" >&2; exit 1; }
wmiss=$(json_field "$o3json" window_arena_miss)
echo "$wmiss" | awk -F, '{ for (i = 2; i <= NF; i++) if ($i > 0) exit 1 }' \
  || { echo "ci: arena misses grew after first window ($wmiss)" >&2; exit 1; }
ck0=$(json_field "$cjson" stream_checksum)
ck3=$(json_field "$o3json" stream_checksum)
test -n "$ck0" && test "$ck0" = "$ck3" \
  || { echo "ci: O3 stream digest $ck3 diverges from O0's $ck0" >&2; exit 1; }

echo "== cora bench-stream --exec --engine compiled --opt 3 --domains 4 --smoke" >&2
# The same O3 stream behind the concurrent front-end.  --smoke checks every
# request's output bitwise against the reference; the order-independent
# stream digest must again equal the O0 serial run's.
dune exec bin/cora_cli.exe -- bench-stream --exec --engine compiled --opt 3 \
  --domains 4 --smoke > "$tmpdir/stream_o3_domains.txt"

o3djson=$(sed -n 's/^BENCH_STREAM //p' "$tmpdir/stream_o3_domains.txt")
test -n "$o3djson" || { echo "ci: no BENCH_STREAM line (opt 3 domains)" >&2; exit 1; }
for field in rejected deadline_exceeded errors; do
  n=$(json_field "$o3djson" "$field")
  awk -v n="$n" 'BEGIN { exit (n == 0) ? 0 : 1 }' \
    || { echo "ci: $field=$n on the O3 concurrent stream, expected 0" >&2; exit 1; }
done
ck3d=$(json_field "$o3djson" stream_checksum)
test "$ck0" = "$ck3d" \
  || { echo "ci: concurrent O3 stream digest $ck3d diverges from O0's $ck0" >&2; exit 1; }

echo "== cora bench-stream --workload encoder --dataset mnli --exec --engine compiled --opt 3 --smoke" >&2
# The serving benchmark's encoder_mnli workload (tiny encoder, batch 4 MNLI
# vectors) at the O3 serving level: --smoke checks every served output
# bitwise against the reference.
dune exec bin/cora_cli.exe -- bench-stream --workload encoder --dataset mnli --exec \
  --engine compiled --opt 3 --smoke > "$tmpdir/stream_encoder.txt"
ejson=$(sed -n 's/^BENCH_STREAM //p' "$tmpdir/stream_encoder.txt")
echo "$ejson" | grep -q '"workload":"encoder"' \
  || { echo "ci: no encoder BENCH_STREAM line" >&2; exit 1; }

echo "== perfbench --trace 1 on every benchmark workload" >&2
# The serving benchmark's traced mode re-runs each served request from the
# server's job memo (perfbench/wb.ml reads its entries' job, prelude key
# and level) and counts a request as failed unless its checksum is
# bitwise the cache-bypassed interpreter's.  perfbench's selftest covers
# only the untraced measure; this runs the traced replay end to end, one
# second per workload, and requires every request correct.
for wl in encoder_mnli decode_trace fig1_batched; do
  bash perfbench/run.sh --workload "$wl" --seed 1 --seconds 1 --trace 1 \
    > "$tmpdir/perfbench_$wl.txt"
  pb=$(tail -n 1 "$tmpdir/perfbench_$wl.txt")
  printf '%s\n' "$pb" | grep -q '"correct": *true' \
    || { echo "ci: perfbench $wl --trace 1 is not correct" >&2; exit 1; }
  printf '%s\n' "$pb" | grep -q '"failed": *0[,}]' \
    || { echo "ci: perfbench $wl --trace 1 reports failed requests" >&2; exit 1; }
done

echo "== bench engine — O3/O0 speedup floor and bound variants" >&2
# Deterministic half: the O3 microkernel variants each runner's kernels bind
# at closure-build time (BENCH_ENGINE lists the nonzero
# engine.mk_variant.* counts) must be exactly this set.
# Clocked half, asserted best-of-3: each bench run is itself a min of three
# alternating O0/O3 adaptive samples, but on a busy CI box the ratio still
# jitters, so the floor is checked against the best ratio over three whole
# runs.  O3 must come in at >= 17.0x over O0 on vgemm and >= 6.2x on the
# encoder layer (the former O3 >= 1.5x / 1.3x over O2 floors times the
# median O2/O0 ratio, 11.3x / 4.75x), with outputs bitwise-identical to the
# interpreter at both levels in every run.
variants_of() {
  printf '%s\n' "$1" | sed -n "s/.*\"$2\":{\([^}]*\)}.*/\1/p" \
    | grep -o '"engine\.mk_variant\.[a-z0-9_.]*"' | tr -d '"' \
    | sed 's/^engine\.mk_variant\.//' | LC_ALL=C sort | tr '\n' ' '
}
best_vg=0; best_enc=0
for i in 1 2 3; do
  dune exec bench/main.exe -- engine > "$tmpdir/bench_engine_$i.txt"
  eb=$(sed -n 's/^BENCH_ENGINE //p' "$tmpdir/bench_engine_$i.txt")
  test -n "$eb" || { echo "ci: no BENCH_ENGINE line (run $i)" >&2; exit 1; }
  echo "$eb" | grep -q '"outputs_match":false' \
    && { echo "ci: compiled outputs diverge from the interpreter" >&2; exit 1; }
  vv=$(variants_of "$eb" vgemm)
  vv_want="dot.sum_s4 dot.tile4 "
  test "$vv" = "$vv_want" \
    || { echo "ci: vgemm O3 bound variants [$vv], expected [$vv_want]" >&2; exit 1; }
  ev=$(variants_of "$eb" encoder)
  ev_want="copy.blit dot.sum_u4 dot.tile4 dot.tile4_masked reduce1.combine_s reduce1.sum_u4 "
  test "$ev" = "$ev_want" \
    || { echo "ci: encoder O3 bound variants [$ev], expected [$ev_want]" >&2; exit 1; }
  vg=$(json_field "$eb" speedup_o3_vs_o0 vgemm)
  enc=$(json_field "$eb" speedup_o3_vs_o0 encoder)
  if awk -v a="$vg" -v b="$best_vg" 'BEGIN { exit (a > b) ? 0 : 1 }'; then best_vg=$vg; fi
  if awk -v a="$enc" -v b="$best_enc" 'BEGIN { exit (a > b) ? 0 : 1 }'; then best_enc=$enc; fi
done
awk -v s="$best_vg" 'BEGIN { exit (s >= 17.0) ? 0 : 1 }' \
  || { echo "ci: vgemm O3/O0 speedup $best_vg below the 17.0x floor" >&2; exit 1; }
awk -v s="$best_enc" 'BEGIN { exit (s >= 6.2) ? 0 : 1 }' \
  || { echo "ci: encoder O3/O0 speedup $best_enc below the 6.2x floor" >&2; exit 1; }
echo "ci: O3/O0 speedups OK (best-of-3: vgemm ${best_vg}x, encoder ${best_enc}x)" >&2

echo "== cora bench-stream --exec --domains 4 --smoke" >&2
# Same stream, but pushed through the concurrent front-end: 4 worker domains
# behind the bounded queue.  --smoke makes the binary fail on any rejected,
# errored or deadline-exceeded request and on any output that diverges
# bitwise from the reference.  The typed outcome counters are then
# re-checked here from the JSON as an independent assertion.
dune exec bin/cora_cli.exe -- bench-stream --exec --domains 4 --smoke \
  > "$tmpdir/stream_domains.txt"

djson=$(sed -n 's/^BENCH_STREAM //p' "$tmpdir/stream_domains.txt")
test -n "$djson" || { echo "ci: no BENCH_STREAM line (domains)" >&2; exit 1; }
echo "$djson" | grep -q '"domains":4' \
  || { echo "ci: concurrent run not labelled domains=4" >&2; exit 1; }
for field in rejected deadline_exceeded errors; do
  n=$(json_field "$djson" "$field")
  awk -v n="$n" 'BEGIN { exit (n == 0) ? 0 : 1 }' \
    || { echo "ci: $field=$n on an unloaded stream, expected 0" >&2; exit 1; }
done
goodput=$(json_field "$djson" goodput_rps)
awk -v g="$goodput" 'BEGIN { exit (g > 0) ? 0 : 1 }' \
  || { echo "ci: goodput_rps=$goodput, expected > 0" >&2; exit 1; }

echo "== cora bench-stream --exec --pool 1 --batching --smoke" >&2
# Continuous batching over a single-signature pool, serial: each window's
# requests are bin-packed into tile-aligned mega-batches and every member's
# output is checked bitwise against the solo reference (--smoke exits
# nonzero on divergence).  The arena must also go flat after
# the first window: the mega-batch signatures repeat, so steady-state
# serving allocates nothing fresh.
dune exec bin/cora_cli.exe -- bench-stream --exec --pool 1 --batching --smoke \
  > "$tmpdir/stream_batch_serial.txt"

bjson=$(sed -n 's/^BENCH_STREAM //p' "$tmpdir/stream_batch_serial.txt")
test -n "$bjson" || { echo "ci: no BENCH_STREAM line (batching serial)" >&2; exit 1; }
echo "$bjson" | grep -q '"batching":true' \
  || { echo "ci: batched run not labelled batching=true" >&2; exit 1; }
nbatches=$(json_field "$bjson" batches)
awk -v n="$nbatches" 'BEGIN { exit (n > 0) ? 0 : 1 }' \
  || { echo "ci: batches=$nbatches, expected > 0" >&2; exit 1; }
bwmiss=$(json_field "$bjson" window_arena_miss)
echo "$bwmiss" | awk -F, '{ for (i = 2; i <= NF; i++) if ($i > 0) exit 1 }' \
  || { echo "ci: batched arena misses grew after first window ($bwmiss)" >&2; exit 1; }

echo "== cora bench-stream --exec --domains 4 --batching --smoke" >&2
# Continuous batching behind the concurrent front-end: worker domains drain
# the admission queue under the batching window, form mega-batches, and
# scatter per-request outcomes back.  --smoke keeps the bitwise reference
# check; here the JSON is re-checked for the batching win itself —
# an unloaded stream must lose no requests, batches must actually form
# (mean size > 1), and the ragged mega-batch padding waste must stay below
# the one-request-one-batch dense baseline computed from the same stream.
dune exec bin/cora_cli.exe -- bench-stream --exec --domains 4 --batching --smoke \
  > "$tmpdir/stream_batch_domains.txt"

cbjson=$(sed -n 's/^BENCH_STREAM //p' "$tmpdir/stream_batch_domains.txt")
test -n "$cbjson" || { echo "ci: no BENCH_STREAM line (batching domains)" >&2; exit 1; }
for field in rejected deadline_exceeded errors evicted; do
  n=$(json_field "$cbjson" "$field")
  awk -v n="$n" 'BEGIN { exit (n == 0) ? 0 : 1 }' \
    || { echo "ci: $field=$n on an unloaded batched stream, expected 0" >&2; exit 1; }
done
mbs=$(json_field "$cbjson" mean_batch_size)
awk -v m="$mbs" 'BEGIN { exit (m > 1) ? 0 : 1 }' \
  || { echo "ci: mean_batch_size=$mbs, expected > 1" >&2; exit 1; }
pwf=$(json_field "$cbjson" padding_waste_frac)
upwf=$(json_field "$cbjson" unbatched_padding_waste_frac)
awk -v p="$pwf" -v u="$upwf" 'BEGIN { exit (p < u) ? 0 : 1 }' \
  || { echo "ci: batched padding waste $pwf not below unbatched $upwf" >&2; exit 1; }

echo "== cora bench-stream --domains 4 telemetry" >&2
# Full-telemetry concurrent run: Chrome trace (re-parsed by the binary),
# flight-recorder ring, and OpenMetrics exposition (self-validated by the
# binary's strict parser).  The OpenMetrics text is then re-checked here:
# well-formed TYPE lines, counters named _total, histogram buckets with
# monotone cumulative le-series closed by +Inf == _count, and a final
# # EOF terminator.
dune exec bin/cora_cli.exe -- bench-stream --exec --domains 4 \
  --trace-out "$tmpdir/stream_trace.json" \
  --flight-out "$tmpdir/flight.json" \
  --openmetrics "$tmpdir/metrics.om" \
  > "$tmpdir/stream_telemetry.txt" 2> "$tmpdir/stream_telemetry.err"

test -s "$tmpdir/stream_trace.json" || { echo "ci: stream trace is empty" >&2; exit 1; }
test -s "$tmpdir/flight.json" || { echo "ci: flight ring is empty" >&2; exit 1; }
test -s "$tmpdir/metrics.om" || { echo "ci: openmetrics file is empty" >&2; exit 1; }
grep -q '"req":' "$tmpdir/stream_trace.json" \
  || { echo "ci: trace events carry no request ids" >&2; exit 1; }
grep -q '"sig":' "$tmpdir/flight.json" \
  || { echo "ci: flight records carry no raggedness signatures" >&2; exit 1; }
tail -c 16 "$tmpdir/metrics.om" | grep -q "# EOF" \
  || { echo "ci: openmetrics output not terminated by # EOF" >&2; exit 1; }
grep -q "^# TYPE cora_serve_model_ns histogram" "$tmpdir/metrics.om" \
  || { echo "ci: serve model-time histogram missing from exposition" >&2; exit 1; }
awk '
  $1 ~ /_bucket\{le="\+Inf"\}$/ {
    b = $1; sub(/_bucket\{le="\+Inf"\}$/, "", b); infc[b] = $2 + 0; next
  }
  $1 ~ /_bucket\{le="/ {
    f = $1; sub(/_bucket\{.*$/, "", f)
    if (f != prevfam) { prevcum = -1; prevle = ""; prevfam = f }
    match($1, /le="[^"]*"/); le = substr($1, RSTART + 4, RLENGTH - 5) + 0
    if (prevle != "" && le <= prevle) { print "ci: non-increasing le in " f; bad = 1 }
    if ($2 + 0 < prevcum) { print "ci: non-monotone cumulative count in " f; bad = 1 }
    prevle = le; prevcum = $2 + 0; next
  }
  $1 ~ /_count$/ { b = $1; sub(/_count$/, "", b); cnt[b] = $2 + 0; next }
  $1 ~ /_sum$/ { b = $1; sub(/_sum$/, "", b); sum_seen[b] = 1; next }
  END {
    for (b in cnt) {
      if (!(b in infc) || infc[b] != cnt[b]) { print "ci: " b ": +Inf bucket != _count"; bad = 1 }
      if (!(b in sum_seen)) { print "ci: " b ": _sum missing"; bad = 1 }
    }
    exit bad
  }' "$tmpdir/metrics.om" || { echo "ci: openmetrics histogram check failed" >&2; exit 1; }
grep -q "cora_trace_dropped_total" "$tmpdir/metrics.om" \
  || { echo "ci: trace.dropped counter not exposed" >&2; exit 1; }
# one occupancy gauge per serving cache family
for c in compile_cache plan prelude_cache autotune job_build_fig1; do
  grep -q "^cora_cache_${c}_entries " "$tmpdir/metrics.om" \
    || { echo "ci: cache gauge cora_cache_${c}_entries not exposed" >&2; exit 1; }
done

echo "== telemetry overhead budget" >&2
# Spans-on (the telemetry run above) vs spans-off: the same stream replayed
# without --trace-out must not be more than 5% faster on model-time
# throughput... wall time on a busy CI box is too noisy for a 5% bound, so
# compare best-of-3 wall times and allow the 5% budget on those.
best_off=""
for i in 1 2 3; do
  dune exec bin/cora_cli.exe -- bench-stream --exec --domains 4 \
    > "$tmpdir/stream_off_$i.txt"
  w=$(json_field "$(sed -n 's/^BENCH_STREAM //p' "$tmpdir/stream_off_$i.txt")" wall_ns)
  if [ -z "$best_off" ] || awk -v a="$w" -v b="$best_off" 'BEGIN { exit (a < b) ? 0 : 1 }'; then
    best_off=$w
  fi
done
best_on=""
for i in 1 2 3; do
  dune exec bin/cora_cli.exe -- bench-stream --exec --domains 4 \
    --trace-out "$tmpdir/trace_on_$i.json" > "$tmpdir/stream_on_$i.txt" 2> /dev/null
  w=$(json_field "$(sed -n 's/^BENCH_STREAM //p' "$tmpdir/stream_on_$i.txt")" wall_ns)
  if [ -z "$best_on" ] || awk -v a="$w" -v b="$best_on" 'BEGIN { exit (a < b) ? 0 : 1 }'; then
    best_on=$w
  fi
done
awk -v on="$best_on" -v off="$best_off" 'BEGIN { exit (on <= off * 1.05) ? 0 : 1 }' \
  || { echo "ci: tracing overhead over budget (on=$best_on ns vs off=$best_off ns)" >&2; exit 1; }
echo "ci: tracing overhead OK (best-of-3: on=$best_on ns, off=$best_off ns)" >&2

echo "== cora bench-stream --autotune --smoke" >&2
# Online schedule autotuning, serial then concurrent.  --smoke makes the
# binary fail on any output that diverges bitwise from the untuned
# reference (the tuner may only move data-axis loop structure); the JSON is then
# re-checked here: no lost requests, at least one search that actually
# beat the hand schedule, and a non-empty bounded memo.
dune exec bin/cora_cli.exe -- bench-stream --exec --requests 200 --autotune --smoke \
  > "$tmpdir/stream_autotune.txt"
ajson=$(sed -n 's/^BENCH_STREAM //p' "$tmpdir/stream_autotune.txt")
test -n "$ajson" || { echo "ci: no BENCH_STREAM line (autotune)" >&2; exit 1; }
echo "$ajson" | grep -q '"autotune":true' \
  || { echo "ci: autotune run not labelled autotune=true" >&2; exit 1; }
for field in rejected deadline_exceeded errors; do
  n=$(json_field "$ajson" "$field")
  awk -v n="$n" 'BEGIN { exit (n == 0) ? 0 : 1 }' \
    || { echo "ci: $field=$n on an autotuned stream, expected 0" >&2; exit 1; }
done
wins=$(json_field "$ajson" autotune_tuned_wins)
awk -v w="$wins" 'BEGIN { exit (w >= 1) ? 0 : 1 }' \
  || { echo "ci: autotune_tuned_wins=$wins, expected >= 1" >&2; exit 1; }
entries=$(json_field "$ajson" autotune_memo_entries)
awk -v n="$entries" 'BEGIN { exit (n > 0) ? 0 : 1 }' \
  || { echo "ci: autotune memo is empty after the replay" >&2; exit 1; }

# Goodput regression budget: steady-state tuned serving must stay within
# 0.95x of steady-state hand serving's host-side request rate.  Measured
# on the model-only path (no --exec): goodput is host wall, and
# interpreting a tuned multi-kernel schedule on the host costs real host
# time by design — the tuner optimizes *modeled* device time, which the
# autotune bench and the tuned-wins gate above already verify.
# What this budget guards is the serving hot path itself: with the
# decision baked into the job memo, a steady-state tuned request must
# cost the same lookups a hand request does.  The pair comes from ONE
# process (autotune_steady_*_rps: warmed hand and warmed tuned replays
# timed back to back) because cross-process wall clocks in this
# container drift by 2x between identical runs; best-of-3 ratios on top
# of that absorbs what in-process jitter remains.
best_ratio=0
for i in 1 2 3; do
  sjson=$(dune exec bin/cora_cli.exe -- bench-stream --requests 5000 --autotune --smoke \
    | sed -n 's/^BENCH_STREAM //p')
  sh=$(json_field "$sjson" autotune_steady_hand_rps)
  st=$(json_field "$sjson" autotune_steady_tuned_rps)
  r=$(awk -v t="$st" -v h="$sh" 'BEGIN { printf "%.4f", (h > 0) ? t / h : 0 }')
  if awk -v r="$r" -v best="$best_ratio" 'BEGIN { exit (r > best) ? 0 : 1 }'; then best_ratio=$r; fi
done
awk -v r="$best_ratio" 'BEGIN { exit (r >= 0.95) ? 0 : 1 }' \
  || { echo "ci: steady-state tuned/hand goodput ratio $best_ratio below 0.95" >&2; exit 1; }
echo "ci: autotune goodput OK (best-of-3 steady-state tuned/hand ratio: $best_ratio)" >&2

# The same steady-state budget with both replays executing on the O3
# compiled engine, the level the serving benchmark runs at: a steady-state
# tuned request must still cost the one job-memo lookup a hand request
# does.
best_ratio3=0
for i in 1 2 3; do
  s3json=$(dune exec bin/cora_cli.exe -- bench-stream --requests 5000 \
    --engine compiled --opt 3 --autotune --smoke | sed -n 's/^BENCH_STREAM //p')
  sh=$(json_field "$s3json" autotune_steady_hand_rps)
  st=$(json_field "$s3json" autotune_steady_tuned_rps)
  r=$(awk -v t="$st" -v h="$sh" 'BEGIN { printf "%.4f", (h > 0) ? t / h : 0 }')
  if awk -v r="$r" -v best="$best_ratio3" 'BEGIN { exit (r > best) ? 0 : 1 }'; then
    best_ratio3=$r
  fi
done
awk -v r="$best_ratio3" 'BEGIN { exit (r >= 0.95) ? 0 : 1 }' \
  || { echo "ci: --opt 3 tuned/hand goodput ratio $best_ratio3 below 0.95" >&2; exit 1; }
echo "ci: autotune --opt 3 goodput OK (best-of-3 tuned/hand ratio: $best_ratio3)" >&2

echo "== cora bench-stream --autotune --domains 4 --smoke" >&2
# The same autotuned stream behind the concurrent front-end: cold-key
# tunes may race across domains (benign — decisions are deterministic),
# and --smoke keeps the bitwise reference check.
dune exec bin/cora_cli.exe -- bench-stream --exec --autotune --domains 4 --smoke \
  > "$tmpdir/stream_autotune_domains.txt"
adjson=$(sed -n 's/^BENCH_STREAM //p' "$tmpdir/stream_autotune_domains.txt")
test -n "$adjson" || { echo "ci: no BENCH_STREAM line (autotune domains)" >&2; exit 1; }
for field in rejected deadline_exceeded errors; do
  n=$(json_field "$adjson" "$field")
  awk -v n="$n" 'BEGIN { exit (n == 0) ? 0 : 1 }' \
    || { echo "ci: $field=$n on the concurrent autotuned stream, expected 0" >&2; exit 1; }
done
tuned=$(json_field "$adjson" tuned_requests)
awk -v t="$tuned" 'BEGIN { exit (t > 0) ? 0 : 1 }' \
  || { echo "ci: no request was ever served from a tuned schedule" >&2; exit 1; }

echo "== cora bench-stream --workload decode --domains 4 --smoke" >&2
# Autoregressive decoding behind the concurrent front-end: a trace of
# prefill+decode sessions whose KV-cache lengths grow by one per step,
# served with incremental prelude maintenance.  --smoke turns on the
# differential delta-vs-rebuild oracle for every delta update and checks
# each request's output bitwise against the reference; the JSON is
# then re-checked here — no lost requests, the delta path actually fired,
# and the steady-state modeled per-step prelude cost at least halved
# against full rebuilds.
dune exec bin/cora_cli.exe -- bench-stream --workload decode --exec \
  --domains 4 --smoke > "$tmpdir/stream_decode.txt"

dsjson=$(sed -n 's/^BENCH_STREAM //p' "$tmpdir/stream_decode.txt")
test -n "$dsjson" || { echo "ci: no BENCH_STREAM line (decode)" >&2; exit 1; }
for field in rejected deadline_exceeded errors; do
  n=$(json_field "$dsjson" "$field")
  awk -v n="$n" 'BEGIN { exit (n == 0) ? 0 : 1 }' \
    || { echo "ci: $field=$n on the decode stream, expected 0" >&2; exit 1; }
done
dcjson=$(sed -n 's/^BENCH_DECODE //p' "$tmpdir/stream_decode.txt")
test -n "$dcjson" || { echo "ci: no BENCH_DECODE line" >&2; exit 1; }
dup=$(json_field "$dcjson" tables_delta_updated)
awk -v n="$dup" 'BEGIN { exit (n > 0) ? 0 : 1 }' \
  || { echo "ci: tables_delta_updated=$dup, the delta path never fired" >&2; exit 1; }
dm=$(json_field "$dcjson" prelude_delta_model_ns)
rm_=$(json_field "$dcjson" prelude_rebuild_model_ns)
awk -v d="$dm" -v r="$rm_" 'BEGIN { exit (d > 0 && d <= 0.5 * r) ? 0 : 1 }' \
  || { echo "ci: delta prelude $dm ns not <= half of rebuild $rm_ ns" >&2; exit 1; }
# Every step of the trace has the same row count, hence one structure:
# plans are built once and reused, so the stream builds at most one per
# worker domain (domains racing on the cold structure may each build it).
pmiss=$(json_field "$dsjson" plan_misses)
awk -v n="$pmiss" 'BEGIN { exit (n >= 1 && n <= 4) ? 0 : 1 }' \
  || { echo "ci: plan_misses=$pmiss on the decode stream, expected 1..4 (one structure, 4 domains)" >&2; exit 1; }

echo "== flight recorder dump on deadline miss" >&2
# An impossible deadline forces every request into Deadline_exceeded; the
# front-end must auto-dump the flight ring into results/ as valid JSON.
rm -f results/flight-*.json
dune exec bin/cora_cli.exe -- bench-stream --requests 8 --domains 2 \
  --deadline-ms 0.0001 > "$tmpdir/stream_deadline.txt" 2> /dev/null
flight=$(ls results/flight-*.json 2> /dev/null | head -n 1)
test -n "$flight" || { echo "ci: no flight dump in results/ after deadline misses" >&2; exit 1; }
grep -q '"reason":"deadline_exceeded"' "$flight" \
  || { echo "ci: $flight has no deadline_exceeded reason" >&2; exit 1; }
grep -q '"outcome":"deadline_exceeded"' "$flight" \
  || { echo "ci: $flight records no deadline_exceeded outcome" >&2; exit 1; }
# the dump was this step's fixture; don't leave it lying around the tree
rm -f results/flight-*.json

echo "== flight recorder dump on batched deadline miss" >&2
# The same impossible deadline behind the batching front-end: every member
# is evicted when its mega-batch forms, answered Deadline_exceeded, and the
# batched outcome path must auto-dump the flight ring just like the solo one.
rm -f results/flight-*.json
dune exec bin/cora_cli.exe -- bench-stream --requests 8 --domains 2 --batching \
  --deadline-ms 0.0001 > "$tmpdir/stream_batch_deadline.txt" 2> /dev/null
bdjson=$(sed -n 's/^BENCH_STREAM //p' "$tmpdir/stream_batch_deadline.txt")
test -n "$bdjson" || { echo "ci: no BENCH_STREAM line (batched deadline)" >&2; exit 1; }
for pair in served:0 deadline_exceeded:8 evicted:8; do
  n=$(json_field "$bdjson" "${pair%%:*}")
  test "$n" = "${pair#*:}" \
    || { echo "ci: ${pair%%:*}=$n on the batched deadline stream, expected ${pair#*:}" >&2; exit 1; }
done
flight=$(ls results/flight-*.json 2> /dev/null | head -n 1)
test -n "$flight" || { echo "ci: no flight dump after batched deadline misses" >&2; exit 1; }
grep -q '"reason":"deadline_exceeded"' "$flight" \
  || { echo "ci: $flight has no deadline_exceeded reason" >&2; exit 1; }
grep -q '"outcome":"deadline_exceeded"' "$flight" \
  || { echo "ci: $flight records no deadline_exceeded outcome" >&2; exit 1; }
rm -f results/flight-*.json

echo "ci: OK" >&2
