(** OpenMetrics / Prometheus text exposition of the metrics registry.

    [to_openmetrics ()] renders every registered metric as one text
    block: counters as [<name>_total], gauges as plain samples,
    histograms as the classic cumulative-[le] bucket series (from
    {!Metrics.cumulative_buckets}) plus exact [_sum] and [_count].
    Metric names are prefixed [cora_] and sanitised (every character
    outside [[a-zA-Z0-9_:]] becomes [_]), and the document ends with the
    OpenMetrics [# EOF] marker.

    [validate] re-parses a rendered document and checks the structural
    invariants a scraper relies on — the CI wrapper feeds the CLI's own
    output back through it, the same trick [cora trace] plays with its
    Chrome trace. *)

let sanitize name =
  String.map
    (fun c ->
      match c with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> c | _ -> '_')
    name

let metric_name name = "cora_" ^ sanitize name

(* [%g] is compact but only 6 significant digits; bucket bounds are
   1/16 apart so that is ample, while [_sum] keeps full precision. *)
let fmt_bound f = Printf.sprintf "%g" f
let fmt_float f = if Float.is_finite f then Printf.sprintf "%.17g" f else "0"

let to_openmetrics () =
  let b = Buffer.create 4096 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string b (s ^ "\n")) fmt in
  List.iter
    (fun (name, snap) ->
      let mname = metric_name name in
      match snap with
      | Metrics.Counter_v v ->
          line "# TYPE %s counter" mname;
          line "%s_total %d" mname v
      | Metrics.Gauge_v v ->
          line "# TYPE %s gauge" mname;
          line "%s %d" mname v
      | Metrics.Histogram_v s ->
          line "# TYPE %s histogram" mname;
          let buckets = Metrics.cumulative_buckets (Metrics.histogram name) in
          List.iter
            (fun (ub, cum) -> line "%s_bucket{le=\"%s\"} %d" mname (fmt_bound ub) cum)
            buckets;
          line "%s_bucket{le=\"+Inf\"} %d" mname s.Metrics.n;
          line "%s_sum %s" mname (fmt_float s.Metrics.sum);
          line "%s_count %d" mname s.Metrics.n)
    (Metrics.dump ());
  Buffer.add_string b "# EOF\n";
  Buffer.contents b

(* ---------------- validation ---------------- *)

(* Strict enough for our own output: TYPE lines introduce a family, at
   most once per name (two metrics whose names sanitize alike render as
   one family twice); histogram families must emit strictly increasing
   [le] bounds with non-decreasing cumulative counts, end on [+Inf], and
   agree with [_count]; every sample line must belong to the family in
   scope. *)

exception Bad of string

let validate (doc : string) : (int, string) result =
  let lines = String.split_on_char '\n' doc in
  let fail fmt = Printf.ksprintf (fun s -> raise (Bad s)) fmt in
  let families = ref 0 in
  let seen = Hashtbl.create 64 in
  (* state of the histogram family in scope *)
  let cur = ref None (* (name, kind) *) in
  let h_last_le = ref neg_infinity in
  let h_last_cum = ref 0 in
  let h_inf = ref None in
  let h_count = ref None in
  let h_sum_seen = ref false in
  let finish_family () =
    match !cur with
    | Some (name, "histogram") -> (
        if not !h_sum_seen then fail "%s: histogram without _sum" name;
        match (!h_inf, !h_count) with
        | None, _ -> fail "%s: histogram without le=\"+Inf\" bucket" name
        | _, None -> fail "%s: histogram without _count" name
        | Some i, Some c -> if i <> c then fail "%s: +Inf bucket %d <> _count %d" name i c)
    | _ -> ()
  in
  let parse_sample line =
    match String.index_opt line ' ' with
    | None -> fail "sample line without value: %S" line
    | Some i ->
        let series = String.sub line 0 i in
        let v = String.sub line (i + 1) (String.length line - i - 1) in
        let v =
          match float_of_string_opt v with
          | Some f -> f
          | None -> fail "unparseable value %S on %S" v line
        in
        (series, v)
  in
  let check_sample name kind line =
    let series, v = parse_sample line in
    match kind with
    | "counter" ->
        if series <> name ^ "_total" then fail "%s: counter sample %s" name series;
        if v < 0.0 then fail "%s: negative counter %g" name v
    | "gauge" -> if series <> name then fail "%s: gauge sample %s" name series
    | "histogram" ->
        let bucket_prefix = name ^ "_bucket{le=\"" in
        if String.length series > String.length bucket_prefix
           && String.sub series 0 (String.length bucket_prefix) = bucket_prefix
        then begin
          let le =
            String.sub series
              (String.length bucket_prefix)
              (String.length series - String.length bucket_prefix - 2)
          in
          let cum = int_of_float v in
          if cum < !h_last_cum then
            fail "%s: cumulative bucket count fell (%d after %d)" name cum !h_last_cum;
          h_last_cum := cum;
          if le = "+Inf" then begin
            if !h_inf <> None then fail "%s: duplicate +Inf bucket" name;
            h_inf := Some cum
          end
          else begin
            if !h_inf <> None then fail "%s: bucket after +Inf" name;
            let le_v =
              match float_of_string_opt le with
              | Some f -> f
              | None -> fail "%s: unparseable le %S" name le
            in
            if le_v <= !h_last_le then
              fail "%s: le bounds not increasing (%g after %g)" name le_v !h_last_le;
            h_last_le := le_v
          end
        end
        else if series = name ^ "_sum" then h_sum_seen := true
        else if series = name ^ "_count" then h_count := Some (int_of_float v)
        else fail "%s: stray histogram sample %s" name series
    | k -> fail "%s: unknown kind %s" name k
  in
  try
    let saw_eof = ref false in
    List.iter
      (fun line ->
        if !saw_eof && line <> "" then fail "content after # EOF: %S" line
        else if line = "" then ()
        else if line = "# EOF" then saw_eof := true
        else if String.length line > 7 && String.sub line 0 7 = "# TYPE " then begin
          finish_family ();
          match String.split_on_char ' ' line with
          | [ "#"; "TYPE"; name; kind ] ->
              if Hashtbl.mem seen name then fail "%s: repeated TYPE line" name;
              Hashtbl.add seen name ();
              cur := Some (name, kind);
              incr families;
              h_last_le := neg_infinity;
              h_last_cum := 0;
              h_inf := None;
              h_count := None;
              h_sum_seen := false
          | _ -> fail "malformed TYPE line: %S" line
        end
        else if String.length line > 0 && line.[0] = '#' then () (* HELP/comments *)
        else
          match !cur with
          | None -> fail "sample before any TYPE line: %S" line
          | Some (name, kind) -> check_sample name kind line)
      lines;
    finish_family ();
    if not !saw_eof then fail "missing # EOF terminator";
    Ok !families
  with Bad msg -> Error msg

(* ---------------- runtime gauges ---------------- *)

(** Set the [runtime.gc.*] gauges from [Gc.quick_stat] — the
    process-health half of the window-boundary sampler (queue depth,
    cache entries and arena occupancy live above [lib/obs] and are set
    by the serving layer / CLI). *)
let sample_gc_gauges () =
  let s = Gc.quick_stat () in
  Metrics.set (Metrics.gauge "runtime.gc.minor_collections") s.Gc.minor_collections;
  Metrics.set (Metrics.gauge "runtime.gc.major_collections") s.Gc.major_collections;
  Metrics.set (Metrics.gauge "runtime.gc.compactions") s.Gc.compactions;
  Metrics.set (Metrics.gauge "runtime.gc.heap_words") s.Gc.heap_words;
  Metrics.set (Metrics.gauge "runtime.gc.top_heap_words") s.Gc.top_heap_words

(** Set the [cache.<name>.*] gauges for one memo table.  The values
    arrive as plain ints ([Cora.Cache.stats] fields) because [lib/obs]
    sits below the core library; the CLI samples every registered cache
    through this at window boundaries. *)
let set_cache_gauges ~name ~hits ~misses ~evictions ~entries =
  List.iter
    (fun (suffix, v) -> Metrics.set (Metrics.gauge ("cache." ^ name ^ "." ^ suffix)) v)
    [ ("hits", hits); ("misses", misses); ("evictions", evictions); ("entries", entries) ]
