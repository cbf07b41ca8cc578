#!/bin/sh
# CI wrapper: build, run the test suite and the examples, then drive the
# CLI end to end.  Each property of a single run is asserted once, by the
# binary itself, which exits nonzero on a violation: `cora trace` and
# `bench-stream --trace-out` re-parse their Chrome trace,
# `bench-stream --openmetrics` validates its exposition, and
# `bench-stream --smoke` asserts every single-run gate listed in
# `cora bench-stream --help`.  The checks here compare two or more runs,
# hold only for the stream one step picked, or read other outputs.
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

# bench_stream OUT ARG... — run `cora bench-stream ARG...` with its stdout
# in OUT and print its BENCH_STREAM JSON line.  Exits nonzero when the run
# fails or prints no such line.
bench_stream() {
  bs_out=$1
  shift
  dune exec bin/cora_cli.exe -- bench-stream "$@" > "$bs_out" || exit 1
  bs_json=$(sed -n 's/^BENCH_STREAM //p' "$bs_out")
  test -n "$bs_json" || { echo "ci: no BENCH_STREAM line in $bs_out" >&2; exit 1; }
  printf '%s\n' "$bs_json"
}

# labelled JSON FRAGMENT — fail unless the JSON line contains FRAGMENT.
labelled() {
  printf '%s\n' "$1" | grep -qF "$2" || { echo "ci: run not labelled $2" >&2; exit 1; }
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

test -s "$tmpdir/metrics.json" || { echo "ci: metrics.json is empty" >&2; exit 1; }
grep -q "interp.flops" "$tmpdir/summary.txt" \
  || { echo "ci: metrics summary missing interp counters" >&2; exit 1; }

echo "== cora bench-stream --exec --smoke" >&2
# Replays a deterministic request stream through the serving caches.  With
# --exec, every --smoke run below checks every served output bitwise
# against one reference: a cache-bypassed, untuned, serial interpreter
# server run once per distinct vector, which shares no cache with the run
# it checks.
json=$(bench_stream "$tmpdir/stream.txt" --exec --smoke)
labelled "$json" '"seed":'

echo "== cora bench-stream --exec --engine compiled --smoke" >&2
# Same stream, executed through the compiled closure engine: --smoke's
# reference check proves engine parity on the serving path, not just in
# the unit tests.
cjson=$(bench_stream "$tmpdir/stream_compiled.txt" --exec --engine compiled --smoke)
labelled "$cjson" '"engine":"compiled"'

echo "== cora bench-stream --exec --engine compiled --opt 3 --smoke" >&2
# The O3 serving level.  The whole stream's output digest
# (stream_checksum: FNV-1a over every output bit of each response, summed
# mod 2^64) must equal the O0 compiled run's from the step above — a
# full-stream bitwise check across optimization levels.
o3json=$(bench_stream "$tmpdir/stream_o3.txt" --exec --engine compiled --opt 3 --smoke)
labelled "$o3json" '"opt":3'
ck0=$(json_field "$cjson" stream_checksum)
ck3=$(json_field "$o3json" stream_checksum)
test "$ck0" = "$ck3" \
  || { echo "ci: O3 stream digest $ck3 diverges from O0's $ck0" >&2; exit 1; }

echo "== cora bench-stream --exec --engine compiled --opt 3 --domains 4 --smoke" >&2
# The same O3 stream behind the concurrent front-end; the order-independent
# stream digest must again equal the O0 serial run's.
o3djson=$(bench_stream "$tmpdir/stream_o3_domains.txt" --exec --engine compiled --opt 3 \
  --domains 4 --smoke)
ck3d=$(json_field "$o3djson" stream_checksum)
test "$ck0" = "$ck3d" \
  || { echo "ci: concurrent O3 stream digest $ck3d diverges from O0's $ck0" >&2; exit 1; }

echo "== cora bench-stream --workload encoder --dataset mnli --exec --engine compiled --opt 3 --smoke" >&2
# The serving benchmark's encoder_mnli workload (tiny encoder, batch 4 MNLI
# vectors) at the O3 serving level.
ejson=$(bench_stream "$tmpdir/stream_encoder.txt" --workload encoder --dataset mnli --exec \
  --engine compiled --opt 3 --smoke)
labelled "$ejson" '"workload":"encoder"'

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
# behind the bounded queue.
djson=$(bench_stream "$tmpdir/stream_domains.txt" --exec --domains 4 --smoke)
labelled "$djson" '"domains":4'

echo "== cora bench-stream --exec --pool 1 --batching --smoke" >&2
# Continuous batching over a single-signature pool, serial: each window's
# requests are bin-packed into tile-aligned mega-batches and every member's
# output is checked bitwise against the solo reference.  With one
# signature the mega-batch signatures repeat, so the arena must go flat
# after the first window: steady-state serving allocates nothing fresh.
bjson=$(bench_stream "$tmpdir/stream_batch_serial.txt" --exec --pool 1 --batching --smoke)
labelled "$bjson" '"batching":true'
bwmiss=$(json_field "$bjson" window_arena_miss)
echo "$bwmiss" | awk -F, '{ for (i = 2; i <= NF; i++) if ($i > 0) exit 1 }' \
  || { echo "ci: batched arena misses grew after first window ($bwmiss)" >&2; exit 1; }

echo "== cora bench-stream --exec --domains 4 --batching --smoke" >&2
# Continuous batching behind the concurrent front-end: worker domains drain
# the admission queue under the batching window, form mega-batches, and
# scatter per-request outcomes back.  On this stream the ragged mega-batch
# padding waste must stay strictly below the one-request-one-batch dense
# baseline computed from the same stream.
cbjson=$(bench_stream "$tmpdir/stream_batch_domains.txt" --exec --domains 4 --batching --smoke)
pwf=$(json_field "$cbjson" padding_waste_frac)
upwf=$(json_field "$cbjson" unbatched_padding_waste_frac)
awk -v p="$pwf" -v u="$upwf" 'BEGIN { exit (p < u) ? 0 : 1 }' \
  || { echo "ci: batched padding waste $pwf not below unbatched $upwf" >&2; exit 1; }

echo "== cora bench-stream --domains 4 telemetry" >&2
# Full-telemetry concurrent run: Chrome trace (re-parsed by the binary),
# flight-recorder ring, and OpenMetrics exposition (validated by the
# binary's strict parser: TYPE lines, counters named _total, histogram
# buckets with increasing le bounds, monotone cumulative counts closed by
# +Inf == _count, a _sum, and a final # EOF).  Their content is checked here.
bench_stream "$tmpdir/stream_telemetry.txt" --exec --domains 4 \
  --trace-out "$tmpdir/stream_trace.json" \
  --flight-out "$tmpdir/flight.json" \
  --openmetrics "$tmpdir/metrics.om" 2> "$tmpdir/stream_telemetry.err" > /dev/null
grep -q '"req":' "$tmpdir/stream_trace.json" \
  || { echo "ci: trace events carry no request ids" >&2; exit 1; }
grep -q '"sig":' "$tmpdir/flight.json" \
  || { echo "ci: flight records carry no raggedness signatures" >&2; exit 1; }
grep -q "^# TYPE cora_serve_model_ns histogram" "$tmpdir/metrics.om" \
  || { echo "ci: serve model-time histogram missing from exposition" >&2; exit 1; }
grep -q "cora_trace_dropped_total" "$tmpdir/metrics.om" \
  || { echo "ci: trace.dropped counter not exposed" >&2; exit 1; }
# one occupancy gauge per serving cache family
for c in compile_cache plan prelude_cache autotune job_build_fig1; do
  grep -q "^cora_cache_${c}_entries " "$tmpdir/metrics.om" \
    || { echo "ci: cache gauge cora_cache_${c}_entries not exposed" >&2; exit 1; }
done

echo "== telemetry overhead budget" >&2
# Spans-on vs spans-off: the same stream replayed with --trace-out must not
# take more than 5% longer.  Wall time on a busy CI box is noisy, so the
# budget applies to best-of-3 wall times.
# min_wall NAME ARG... — the smallest wall_ns over three bench-stream runs
min_wall() {
  mw_name=$1
  shift
  mw_best=""
  for mw_i in 1 2 3; do
    mw_json=$(bench_stream "$tmpdir/${mw_name}_$mw_i.txt" "$@")
    mw_w=$(json_field "$mw_json" wall_ns)
    if [ -z "$mw_best" ] || awk -v a="$mw_w" -v b="$mw_best" 'BEGIN { exit (a < b) ? 0 : 1 }'; then
      mw_best=$mw_w
    fi
  done
  printf '%s\n' "$mw_best"
}
best_off=$(min_wall stream_off --exec --domains 4)
best_on=$(min_wall stream_on --exec --domains 4 --trace-out "$tmpdir/trace_on.json")
awk -v on="$best_on" -v off="$best_off" 'BEGIN { exit (on <= off * 1.05) ? 0 : 1 }' \
  || { echo "ci: tracing overhead over budget (on=$best_on ns vs off=$best_off ns)" >&2; exit 1; }
echo "ci: tracing overhead OK (best-of-3: on=$best_on ns, off=$best_off ns)" >&2

echo "== cora bench-stream --autotune --smoke" >&2
# Online schedule autotuning: --smoke fails on any output that diverges
# bitwise from the untuned reference (the tuner may only move data-axis
# loop structure).  On this stream at least one search must actually beat
# the hand schedule.
ajson=$(bench_stream "$tmpdir/stream_autotune.txt" --exec --requests 200 --autotune --smoke)
labelled "$ajson" '"autotune":true'
wins=$(json_field "$ajson" autotune_tuned_wins)
awk -v w="$wins" 'BEGIN { exit (w >= 1) ? 0 : 1 }' \
  || { echo "ci: autotune_tuned_wins=$wins, expected >= 1" >&2; exit 1; }

# Goodput regression budget: steady-state tuned serving must stay within
# 0.95x of steady-state hand serving's host-side request rate.  The pair
# (autotune_steady_*_rps) runs only on the model-only path, without --exec:
# goodput is host wall, and interpreting a tuned multi-kernel schedule on
# the host costs real host time by design — the tuner optimizes *modeled*
# device time, which the autotune bench and the tuned-wins gate above
# already verify.  What this budget guards is the serving hot path itself:
# with the decision baked into the job memo, a steady-state tuned request
# must cost the same lookups a hand request does.  The pair comes from ONE
# process (warmed hand and warmed tuned replays timed back to back)
# because cross-process wall clocks in this container drift by 2x between
# identical runs; best-of-3 ratios on top of that absorbs what in-process
# jitter remains.
best_ratio=0
for i in 1 2 3; do
  sjson=$(bench_stream "$tmpdir/stream_steady_$i.txt" --requests 5000 --autotune --smoke)
  sh=$(json_field "$sjson" autotune_steady_hand_rps)
  st=$(json_field "$sjson" autotune_steady_tuned_rps)
  r=$(awk -v t="$st" -v h="$sh" 'BEGIN { printf "%.4f", (h > 0) ? t / h : 0 }')
  if awk -v r="$r" -v best="$best_ratio" 'BEGIN { exit (r > best) ? 0 : 1 }'; then best_ratio=$r; fi
done
awk -v r="$best_ratio" 'BEGIN { exit (r >= 0.95) ? 0 : 1 }' \
  || { echo "ci: steady-state tuned/hand goodput ratio $best_ratio below 0.95" >&2; exit 1; }
echo "ci: autotune goodput OK (best-of-3 steady-state tuned/hand ratio: $best_ratio)" >&2

echo "== cora bench-stream --autotune --domains 4 --smoke" >&2
# The same autotuned stream behind the concurrent front-end: cold-key
# tunes may race across domains (benign — decisions are deterministic).
# On this stream some request must be served from a tuned schedule.
adjson=$(bench_stream "$tmpdir/stream_autotune_domains.txt" --exec --autotune --domains 4 --smoke)
tuned=$(json_field "$adjson" tuned_requests)
awk -v t="$tuned" 'BEGIN { exit (t > 0) ? 0 : 1 }' \
  || { echo "ci: no request was ever served from a tuned schedule" >&2; exit 1; }

echo "== cora bench-stream --workload decode --domains 4 --smoke" >&2
# Autoregressive decoding behind the concurrent front-end: a trace of
# prefill+decode sessions whose KV-cache lengths grow by one per step,
# served with incremental prelude maintenance.  --smoke checks every delta
# table against a rebuild and every output against the reference, and
# asserts the decode gates (the delta path fired and at most halves the
# steady-state modeled prelude cost; one structure, so 1..4 plans built).
bench_stream "$tmpdir/stream_decode.txt" --workload decode --exec --domains 4 --smoke > /dev/null

# deadline_run OUT ARG... — 8 requests on 2 domains under an impossible
# deadline, which forces every request into Deadline_exceeded; the
# front-end must auto-dump the flight ring into results/ as JSON recording
# that reason and outcome.  The dump is this step's fixture and is removed.
# Prints the run's BENCH_STREAM line.
deadline_run() {
  dr_out=$1
  shift
  rm -f results/flight-*.json
  dr_json=$(bench_stream "$dr_out" --requests 8 --domains 2 --deadline-ms 0.0001 "$@" \
    2> "$dr_out.err")
  flight=$(ls results/flight-*.json 2> /dev/null | head -n 1)
  test -n "$flight" || { echo "ci: no flight dump in results/ after deadline misses ($*)" >&2; exit 1; }
  grep -q '"reason":"deadline_exceeded"' "$flight" \
    || { echo "ci: $flight has no deadline_exceeded reason" >&2; exit 1; }
  grep -q '"outcome":"deadline_exceeded"' "$flight" \
    || { echo "ci: $flight records no deadline_exceeded outcome" >&2; exit 1; }
  rm -f results/flight-*.json
  printf '%s\n' "$dr_json"
}

echo "== flight recorder dump on deadline miss" >&2
deadline_run "$tmpdir/stream_deadline.txt" > /dev/null

echo "== flight recorder dump on batched deadline miss" >&2
# Behind the batching front-end every member is evicted when its
# mega-batch forms and answered Deadline_exceeded; the batched outcome
# path must auto-dump the flight ring just like the solo one.
bdjson=$(deadline_run "$tmpdir/stream_batch_deadline.txt" --batching)
for pair in served:0 deadline_exceeded:8 evicted:8; do
  n=$(json_field "$bdjson" "${pair%%:*}")
  test "$n" = "${pair#*:}" \
    || { echo "ci: ${pair%%:*}=$n on the batched deadline stream, expected ${pair#*:}" >&2; exit 1; }
done

echo "ci: OK" >&2
