(** OpenMetrics / Prometheus text exposition of the metrics registry. *)

(** Render every registered metric: counters as [cora_<name>_total],
    gauges as plain samples, histograms as cumulative [le] buckets (only
    non-empty buckets, plus the [+Inf] total) with exact [_sum] and
    [_count].  Ends with the OpenMetrics [# EOF] marker. *)
val to_openmetrics : unit -> string

(** Re-parse a rendered document and check scraper invariants: every
    sample belongs to a [# TYPE] family and no family is typed twice;
    histogram [le] bounds strictly increase with non-decreasing
    cumulative counts, end at [+Inf], and agree with [_count]; [_sum]
    present; the [# EOF] terminator closes the document.  Returns the number of metric families on success. *)
val validate : string -> (int, string) result

(** Set the [runtime.gc.*] gauges from [Gc.quick_stat]; called by the
    serving bench at window boundaries. *)
val sample_gc_gauges : unit -> unit

(** Set the [cache.<name>.{hits,misses,evictions,entries}] gauges for one
    memo table (values from [Cora.Cache.stats], passed as plain ints —
    this library sits below the core library). *)
val set_cache_gauges :
  name:string -> hits:int -> misses:int -> evictions:int -> entries:int -> unit
