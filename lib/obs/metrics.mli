(** Process-wide metrics registry: counters, gauges and histograms.

    Counters are sharded into per-domain atomic cells, so incrementing
    one from inside [Interp.exec_multicore] is lock-free and
    allocation-free; reads sum the shards.

    Histograms are bounded log-linear bucket arrays (HDR-histogram
    style): memory is O(buckets) — a fixed ~8 KB per observing domain —
    independent of how many samples are recorded, so they can stay on
    under a sustained serving stream without leaking.  [observe] is
    lock-free (each domain writes a private shard found through
    domain-local storage); [n], [sum], [min] and [max] are exact;
    percentiles are bucket-interpolated estimates within
    {!relative_error_bound} of the exact sample at the same rank. *)

type counter
type gauge
type histogram

(** [counter name] returns the counter registered under [name],
    creating it on first use.  Raises [Invalid_argument] if [name] is
    already registered as a different kind (same for {!gauge} and
    {!histogram}). *)
val counter : string -> counter

val gauge : string -> gauge
val histogram : string -> histogram

val add : counter -> int -> unit
val incr : counter -> unit
val value : counter -> int

val set : gauge -> int -> unit
val gauge_value : gauge -> int

(** Record one sample: a handful of plain writes to the calling
    domain's private shard — no lock, no atomic, no per-sample
    storage. *)
val observe : histogram -> float -> unit

(** Exact number of recorded samples (sums the per-domain shard
    counts; no sample array is ever materialised). *)
val count : histogram -> int

(** Worst-case relative error of {!percentile} (and the [p50]/[p90]/
    [p99] fields of {!summarize}) against the exact sample at the
    nearest rank: 1/16 = 6.25%.  The estimate lies in the same
    log-linear bucket as that sample, whose width is 1/16 of its lower
    bound; clamping to the exact observed [min]/[max] makes the
    single-sample and 0th/100th-percentile cases exact. *)
val relative_error_bound : float

(** Percentile estimate in [0, 100] by bucket interpolation, within
    {!relative_error_bound} of the exact sample at the nearest rank;
    [nan] when empty. *)
val percentile : histogram -> float -> float

(** Exact percentile (linear interpolation between closest ranks) over
    a caller-supplied sample array — for percentiles over ad-hoc
    windows, and the oracle the histogram estimates are tested
    against.  Non-destructive: the input array is not modified (a copy
    is sorted, with [Float.compare]). *)
val percentile_of : float array -> float -> float

type hsummary = {
  n : int;
  sum : float;
  min_v : float;
  max_v : float;
  mean : float;
  p50 : float;
  p90 : float;
  p99 : float;
}

(** Merge every domain's shard: [n]/[sum]/[min_v]/[max_v]/[mean] exact,
    percentiles within {!relative_error_bound}. *)
val summarize : histogram -> hsummary

(** Non-empty buckets as (inclusive upper bound, cumulative count) in
    increasing bound order — the OpenMetrics [le] series.  The implicit
    [+Inf] bucket is not included; its cumulative count is {!count}. *)
val cumulative_buckets : histogram -> (float * int) list

(** Zero counters/gauges and empty histograms; handles stay valid. *)
val reset : unit -> unit

type snapshot = Counter_v of int | Gauge_v of int | Histogram_v of hsummary

(** Snapshot of every registered metric, sorted by name. *)
val dump : unit -> (string * snapshot) list
