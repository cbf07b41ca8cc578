(** Process-wide metrics registry: counters, gauges and histograms.

    Counters are the hot-path primitive — the interpreter bumps one per
    scalar load — so they are sharded into per-domain atomic cells: an
    increment touches only the cell indexed by the calling domain's id
    (modulo the shard count), never a lock, and allocates nothing.
    Reading a counter sums the shards.  This makes the registry safe
    under [Interp.exec_multicore] without serialising the domains.

    Histograms are bounded log-linear bucket arrays (HDR-histogram
    style): each power-of-two octave is split into [sub] linear
    sub-buckets, so memory is O(buckets) — a fixed ~8 KB per observing
    domain — no matter how many samples are recorded, and percentiles
    are read by bucket interpolation with a documented relative-error
    bound of [1/sub] (see {!relative_error_bound}).  [n], [sum], [min]
    and [max] are tracked exactly alongside the buckets.

    [observe] is lock-free: every domain owns a private shard (created
    on its first observation into that histogram, found through
    domain-local storage), so recording is a handful of plain writes to
    memory no other domain ever writes — no mutex, no atomics, no
    contention.  Readers merge the shards; a merge that races an
    in-flight observation may be one sample stale, which is the usual
    snapshot semantics of a live metrics registry. *)

let shards = 16 (* power of two: counter shard index is [domain_id land (shards-1)] *)

let shard_id () = (Domain.self () :> int) land (shards - 1)

type counter = { c_name : string; cells : int Atomic.t array }
type gauge = { g_name : string; cell : int Atomic.t }

(* ---------------- histogram bucket geometry ---------------- *)

(* [sub] linear sub-buckets per power-of-two octave.  A value [v] with
   [frexp v = (m, e)], [e] in [e_lo, e_hi], lands in octave [e - e_lo],
   sub-bucket [floor ((m - 0.5) * 2 * sub)].  Bucket width over bucket
   lower bound is exactly [1/sub], which is the relative-error bound of
   bucket-interpolated percentiles.  Bucket 0 catches underflow (values
   below [2^(e_lo-1)], including zero, negatives and NaN); the last
   bucket catches overflow. *)
let sub_bits = 4
let sub = 1 lsl sub_bits
let e_lo = -16 (* smallest tracked octave: [2^-17, 2^-16) *)
let e_hi = 50 (* largest tracked octave: [2^49, 2^50) *)
let n_mid = (e_hi - e_lo + 1) * sub
let nbuckets = n_mid + 2
let lowest = Float.ldexp 1.0 (e_lo - 1)
let highest = Float.ldexp 1.0 e_hi

(** Worst-case relative error of {!percentile} against the exact sample
    at the same (nearest) rank: the estimate lies in the same bucket as
    that sample, and bucket width / bucket lower bound = [1/sub]. *)
let relative_error_bound = 1.0 /. float_of_int sub

let bucket_index x =
  if not (x >= lowest) then 0 (* underflow; also catches NaN *)
  else if x >= highest then nbuckets - 1
  else begin
    (* [frexp] read off the IEEE-754 bits instead of its allocating C
       call: [x] is normal here, so with biased exponent [E] and mantissa
       bits [f], [x = (0.5 + f / 2^53) * 2^(E - 1022)] and the sub-bucket
       [floor ((m - 0.5) * 2 * sub)] is the top [sub_bits] bits of [f] *)
    let b = Int64.bits_of_float x in
    let e = Int64.to_int (Int64.shift_right_logical b 52) - 1022 in
    let s = Int64.to_int (Int64.shift_right_logical b (52 - sub_bits)) land (sub - 1) in
    1 + ((e - e_lo) * sub) + s
  end

(* [lo, hi) bounds of bucket [i]; the overflow bucket's [hi] is
   [infinity] (callers clamp to the exact observed max). *)
let bucket_bounds i =
  if i = 0 then (0.0, lowest)
  else if i = nbuckets - 1 then (highest, infinity)
  else begin
    let o = (i - 1) / sub and s = (i - 1) mod sub in
    let base = Float.ldexp 1.0 (e_lo + o - 1) in
    let lo = base *. (1.0 +. (float_of_int s /. float_of_int sub)) in
    let hi = base *. (1.0 +. (float_of_int (s + 1) /. float_of_int sub)) in
    (lo, hi)
  end

(* One domain's private slice of a histogram.  Single writer (the owning
   domain), so all fields are plain mutable memory: an observation is a
   few unsynchronised stores.  [acc] is a flat float array (sum, min,
   max) so updating it allocates nothing. *)
type hshard = {
  mutable n : int;
  acc : float array; (* 0: sum, 1: min, 2: max *)
  buckets : int array;
}

type histogram = {
  h_name : string;
  h_id : int; (* dense index into each domain's local shard table *)
  h_lock : Mutex.t; (* protects [hshards], the list of all domains' shards *)
  mutable hshards : hshard list;
}

type metric = Counter of counter | Gauge of gauge | Histogram of histogram

let registry : (string, metric) Hashtbl.t = Hashtbl.create 64
let registry_lock = Mutex.create ()

let with_lock f =
  Mutex.lock registry_lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock registry_lock) f

let register name make classify =
  with_lock (fun () ->
      match Hashtbl.find_opt registry name with
      | Some m -> (
          match classify m with
          | Some v -> v
          | None -> invalid_arg (Printf.sprintf "metric %s already registered with another kind" name))
      | None ->
          let v, m = make () in
          Hashtbl.add registry name m;
          v)

let counter name =
  register name
    (fun () ->
      let c = { c_name = name; cells = Array.init shards (fun _ -> Atomic.make 0) } in
      (c, Counter c))
    (function Counter c -> Some c | _ -> None)

let gauge name =
  register name
    (fun () ->
      let g = { g_name = name; cell = Atomic.make 0 } in
      (g, Gauge g))
    (function Gauge g -> Some g | _ -> None)

let hist_ids = Atomic.make 0

let histogram name =
  register name
    (fun () ->
      let h =
        {
          h_name = name;
          h_id = Atomic.fetch_and_add hist_ids 1;
          h_lock = Mutex.create ();
          hshards = [];
        }
      in
      (h, Histogram h))
    (function Histogram h -> Some h | _ -> None)

(* ---------------- counters ---------------- *)

let add c n = ignore (Atomic.fetch_and_add c.cells.(shard_id ()) n)
let incr c = add c 1
let value c = Array.fold_left (fun acc cell -> acc + Atomic.get cell) 0 c.cells

(* ---------------- gauges ---------------- *)

let set g n = Atomic.set g.cell n
let gauge_value g = Atomic.get g.cell

(* ---------------- histograms ---------------- *)

(* Per-domain table mapping [h_id] to this domain's shard, so the hot
   path is one DLS read and one array index. *)
let dls_shards : hshard option array ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref [||])

let register_shard (h : histogram) (r : hshard option array ref) : hshard =
  let s = { n = 0; acc = [| 0.0; infinity; neg_infinity |]; buckets = Array.make nbuckets 0 } in
  Mutex.lock h.h_lock;
  h.hshards <- s :: h.hshards;
  Mutex.unlock h.h_lock;
  let a = !r in
  let len = Array.length a in
  if h.h_id >= len then begin
    let b = Array.make (max (h.h_id + 1) ((2 * len) + 8)) None in
    Array.blit a 0 b 0 len;
    b.(h.h_id) <- Some s;
    r := b
  end
  else a.(h.h_id) <- Some s;
  s

let my_shard (h : histogram) : hshard =
  let r = Domain.DLS.get dls_shards in
  let a = !r in
  if h.h_id < Array.length a then
    match Array.unsafe_get a h.h_id with Some s -> s | None -> register_shard h r
  else register_shard h r

let observe h x =
  let s = my_shard h in
  s.n <- s.n + 1;
  s.acc.(0) <- s.acc.(0) +. x;
  if x < s.acc.(1) then s.acc.(1) <- x;
  if x > s.acc.(2) then s.acc.(2) <- x;
  let i = bucket_index x in
  s.buckets.(i) <- s.buckets.(i) + 1

let shards_of h =
  Mutex.lock h.h_lock;
  let ss = h.hshards in
  Mutex.unlock h.h_lock;
  ss

(* O(domains), touching no sample storage — there is none. *)
let count h = List.fold_left (fun acc s -> acc + s.n) 0 (shards_of h)

(* Cross-shard merge: exact n/sum/min/max plus summed bucket counts.
   Percentile walks use the bucket total (not the [n] fields) so a
   racing reader stays internally consistent. *)
type merged = {
  m_n : int;
  m_sum : float;
  m_min : float;
  m_max : float;
  m_buckets : int array;
  m_total : int;
}

let merge h : merged =
  let ss = shards_of h in
  let n = ref 0 and sum = ref 0.0 and mn = ref infinity and mx = ref neg_infinity in
  let buckets = Array.make nbuckets 0 in
  List.iter
    (fun s ->
      n := !n + s.n;
      sum := !sum +. s.acc.(0);
      if s.acc.(1) < !mn then mn := s.acc.(1);
      if s.acc.(2) > !mx then mx := s.acc.(2);
      Array.iteri (fun i c -> buckets.(i) <- buckets.(i) + c) s.buckets)
    ss;
  let total = Array.fold_left ( + ) 0 buckets in
  { m_n = !n; m_sum = !sum; m_min = !mn; m_max = !mx; m_buckets = buckets; m_total = total }

(* Percentile estimate from merged buckets: locate the bucket holding
   the nearest-rank sample, interpolate linearly inside it, clamp to the
   exact observed [min, max].  The true sample at that rank lies in the
   same bucket, so |estimate - sample| <= bucket width <= sample / sub:
   relative error <= {!relative_error_bound}.  Clamping makes the
   single-sample and extreme-percentile cases exact. *)
let merged_percentile (m : merged) p =
  if m.m_total = 0 then Float.nan
  else if p <= 0.0 then m.m_min (* the extremes are tracked exactly *)
  else if p >= 100.0 then m.m_max
  else begin
    let rank = p /. 100.0 *. float_of_int (m.m_total - 1) in
    let k = max 0 (min (m.m_total - 1) (int_of_float (Float.round rank))) in
    let rec go i cum =
      if i >= nbuckets then m.m_max
      else begin
        let c = m.m_buckets.(i) in
        if cum + c > k then begin
          let lo, hi = bucket_bounds i in
          let lo = max lo m.m_min and hi = min hi m.m_max in
          let frac = (float_of_int (k - cum) +. 0.5) /. float_of_int c in
          min (max (lo +. (frac *. (hi -. lo))) m.m_min) m.m_max
        end
        else go (i + 1) (cum + c)
      end
    in
    go 0 0
  end

(** Percentile of an arbitrary sample array (linear interpolation
    between closest ranks; [nan] when empty) — the exact oracle for
    callers computing percentiles over their own windows, e.g. the
    serving bench's per-window p50s.  Non-destructive: the computation
    sorts a copy (with [Float.compare], not the polymorphic [compare]),
    so [xs] is left exactly as passed — callers slicing one latency
    array into overlapping windows must not see their samples silently
    reordered. *)
let percentile_of (xs : float array) p =
  let n = Array.length xs in
  if n = 0 then Float.nan
  else begin
    let xs = Array.copy xs in
    Array.sort Float.compare xs;
    let rank = p /. 100.0 *. float_of_int (n - 1) in
    let lo = max 0 (min (n - 1) (int_of_float (floor rank))) in
    let hi = min (n - 1) (lo + 1) in
    let frac = rank -. float_of_int lo in
    xs.(lo) +. (frac *. (xs.(hi) -. xs.(lo)))
  end

(** Percentile estimate by bucket interpolation, within
    {!relative_error_bound} of the exact sample at the nearest rank;
    [nan] on an empty histogram.  [p] in [0, 100]. *)
let percentile h p = merged_percentile (merge h) p

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

let summarize h =
  let m = merge h in
  if m.m_total = 0 then
    { n = 0; sum = 0.0; min_v = Float.nan; max_v = Float.nan; mean = Float.nan;
      p50 = Float.nan; p90 = Float.nan; p99 = Float.nan }
  else
    { n = m.m_n; sum = m.m_sum; min_v = m.m_min; max_v = m.m_max;
      mean = m.m_sum /. float_of_int m.m_n;
      p50 = merged_percentile m 50.0;
      p90 = merged_percentile m 90.0;
      p99 = merged_percentile m 99.0 }

(** Non-empty buckets as (inclusive upper bound, cumulative count), in
    increasing bound order — the OpenMetrics [le] series.  The implicit
    [+Inf] bucket is not included; its cumulative count is [count h]. *)
let cumulative_buckets h =
  let m = merge h in
  let out = ref [] and cum = ref 0 in
  Array.iteri
    (fun i c ->
      if c > 0 then begin
        cum := !cum + c;
        let _, hi = bucket_bounds i in
        if Float.is_finite hi then out := (hi, !cum) :: !out
        (* overflow bucket: folded into +Inf by the caller *)
      end)
    m.m_buckets;
  List.rev !out

(* ---------------- registry-wide operations ---------------- *)

(** Zero every counter, gauge and histogram; registrations (and handles,
    including each domain's cached histogram shards) stay valid.  A
    domain observing concurrently with [reset] may keep a sample that
    lands in the same instant — reset is a test/window-boundary
    operation, not a synchronisation point. *)
let reset () =
  with_lock (fun () ->
      Hashtbl.iter
        (fun _ m ->
          match m with
          | Counter c -> Array.iter (fun cell -> Atomic.set cell 0) c.cells
          | Gauge g -> Atomic.set g.cell 0
          | Histogram h ->
              Mutex.lock h.h_lock;
              List.iter
                (fun (s : hshard) ->
                  s.n <- 0;
                  s.acc.(0) <- 0.0;
                  s.acc.(1) <- infinity;
                  s.acc.(2) <- neg_infinity;
                  Array.fill s.buckets 0 nbuckets 0)
                h.hshards;
              Mutex.unlock h.h_lock)
        registry)

type snapshot = Counter_v of int | Gauge_v of int | Histogram_v of hsummary

(** Consistent-enough snapshot of every registered metric, sorted by
    name.  Metrics that are identically zero/empty are kept: absence of
    traffic is itself a signal. *)
let dump () =
  let items = with_lock (fun () -> Hashtbl.fold (fun k v acc -> (k, v) :: acc) registry []) in
  items
  |> List.map (fun (name, m) ->
         match m with
         | Counter c -> (name, Counter_v (value c))
         | Gauge g -> (name, Gauge_v (gauge_value g))
         | Histogram h -> (name, Histogram_v (summarize h)))
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)
