(* Wall-clock serving benchmark: workloads, closed-loop load, oracle and
   the traced layer decomposition.

   Every workload drives the real serving stack — [Serving.Frontend] in
   front of [Serving.Server] (and [Serving.Batcher] for fig1_batched) —
   with the compiled engine at O3, from one submitting thread plus one
   front-end worker domain.  Nothing inside the library is instrumented:
   the traced run times calls into each layer's public functions from
   here. *)

open Serving
module Arena = Runtime.Buffer.Arena

let now_us = Spans.now_us
let workloads = [ "encoder_mnli"; "decode_trace"; "fig1_batched" ]
let opt = Ir.Optimize.O3

(* ------------------------------------------------------------------ *)
(* Request sources.  A source hands out raggedness vectors per client
   slot; [drive_with] visits slots round-robin, so a slot's next request
   is submitted only after its previous one resolved (closed loop). *)

type source = { slots : int; next : int -> int array }

(* Cycle through a seeded stream's items, all slots sharing one cursor. *)
let stream_source ~slots (st : Stream.t) =
  let i = ref 0 in
  let n = Array.length st.Stream.items in
  {
    slots;
    next =
      (fun _ ->
        let v = st.Stream.items.(!i mod n) in
        incr i;
        v);
  }

(* One slot per session, each replaying its prefill and decode steps in
   order and starting over — the visiting order of [Stream.run_trace].
   A pass holds more distinct vectors than any memo keyed by them, so a
   vector revisited a pass later has been evicted: every step stays
   never-seen. *)
let trace_source (tr : Stream.trace) =
  let per = tr.Stream.steps + 1 in
  let step = Array.make tr.Stream.sessions 0 in
  {
    slots = tr.Stream.sessions;
    next =
      (fun s ->
        let t = step.(s) in
        step.(s) <- (t + 1) mod per;
        tr.Stream.events.((s * per) + t).Stream.lens);
  }

(* ------------------------------------------------------------------ *)
(* Seeded inputs whose amount of work does not depend on the seed.

   A run's latency and throughput depend on how much work its shapes
   carry, and a handful of plain random draws carries a different amount
   on every seed.  So pools are stratified: draw many candidate vectors,
   order them by a work proxy, and keep one per stratum.  Streams replay
   the pool in balanced rounds (each round a seeded permutation), so
   every shape is requested equally often.  The seed still picks every
   vector and the order. *)

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Workloads.Rng.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

let stratified_pool rng ~n ~work draw =
  let cands = Array.init (32 * n) (fun _ -> draw rng) in
  let keyed = Array.map (fun v -> (work v, v)) cands in
  Array.sort compare keyed;
  Array.init n (fun i -> snd keyed.(((2 * i) + 1) * Array.length keyed / (2 * n)))

let balanced_stream ~(w : Workload.t) ~pool ~rounds ~work ~seed : Stream.t =
  let rng = Workloads.Rng.create seed in
  let shapes = stratified_pool rng ~n:pool ~work w.Workload.sample in
  let items =
    Array.concat
      (List.init rounds (fun _ ->
           let r = Array.copy shapes in
           shuffle rng r;
           r))
  in
  { Stream.seed; shapes; items }

(* Decode sessions' prefill lengths: one per stratum of [1, max_src],
   dealt to rows in a seeded order. *)
let stratified_prefill ~seed ~sessions ~batch ~max_src =
  let rng = Workloads.Rng.create seed in
  let n = sessions * batch in
  let lens =
    Array.init n (fun k ->
        let u = (float_of_int k +. Workloads.Rng.float rng) /. float_of_int n in
        1 + int_of_float (u *. float_of_int max_src))
  in
  shuffle rng lens;
  let next = ref 0 in
  fun (_ : Workloads.Rng.t) ->
    let v = Array.sub lens (!next * batch mod n) batch in
    incr next;
    v

let sum = Array.fold_left ( + ) 0

(* ------------------------------------------------------------------ *)
(* Workload configurations. *)

type inputs = {
  w : Workload.t;
  srv : Server.t;
  batching : Batcher.config option;
  src : source;  (** the timed phase's requests *)
  warm : source * int;  (** warm-up requests and how many *)
  vectors : int array array;  (** every vector the inputs can produce *)
  period : int;  (** requests after which [src] repeats its mix *)
}

let inputs name ~seed : inputs =
  match name with
  | "encoder_mnli" ->
      let w = Workload.encoder ~batch:4 ~dataset:Workloads.Datasets.mnli () in
      let srv =
        Server.create ~engine:`Compiled ~opt ~autotune:Autotune.Tuner.default_cfg ()
      in
      (* work proxy: per row, projections grow with the length and
         attention with its square *)
      let work v = Array.fold_left (fun a l -> a + (l * (l + 64))) 0 v in
      let st = balanced_stream ~w ~pool:8 ~rounds:512 ~work ~seed in
      (* each pool shape twice: the first request tunes it, the second
         compiles the winner *)
      let twice = Array.append st.Stream.shapes st.Stream.shapes in
      let warm = stream_source ~slots:1 { st with Stream.items = twice } in
      {
        w;
        srv;
        batching = None;
        src = stream_source ~slots:1 st;
        warm = (warm, Array.length twice);
        vectors = st.Stream.shapes;
        period = 8;
      }
  | "decode_trace" ->
      let w = Workload.decode ~batch:4 ~max_src:64 () in
      let srv = Server.create ~engine:`Compiled ~opt () in
      let sample = stratified_prefill ~seed ~sessions:8 ~batch:4 ~max_src:64 in
      (* 320 events: more than the 256 entries of the largest memo keyed
         by the vector, so the cycle never hits one *)
      let tr =
        Stream.generate_trace ~workload:{ w with Workload.sample } ~sessions:8 ~steps:39 ~seed ()
      in
      (* warm-up is the first 8 steps of every session; the timed phase
         continues the cycle, growing the arena's size classes with it *)
      let src = trace_source tr in
      {
        w;
        srv;
        batching = None;
        src;
        warm = (src, 64);
        vectors = Array.map (fun (e : Stream.event) -> e.Stream.lens) tr.Stream.events;
        period = Array.length tr.Stream.events;
      }
  | "fig1_batched" ->
      let w = Workload.fig1 ~batch:6 ~max_len:10 () in
      let srv = Server.create ~engine:`Compiled ~opt () in
      let st = balanced_stream ~w ~pool:16 ~rounds:256 ~work:sum ~seed in
      let src = stream_source ~slots:8 st in
      {
        w;
        srv;
        batching = Some Batcher.default_config;
        src;
        warm = (src, 256);
        vectors = st.Stream.shapes;
        period = 16;
      }
  | s -> invalid_arg ("unknown workload " ^ s)

(* ------------------------------------------------------------------ *)
(* Closed-loop load. *)

type sample = {
  lens : int array;
  rid : int;
  submit_us : float;  (** wall time of the [Frontend.submit_wait] call *)
  lat_us : float;  (** submission to outcome *)
  served : bool;
  checksum : float;
  model_ns : float;
  serve_us : float;  (** the response's stage times plus its tune *)
  tuner : string;
  tune_us : float;
}

let sample_of lens rid submit_us lat_us (o : Frontend.outcome) =
  match o with
  | Frontend.Response r ->
      {
        lens;
        rid;
        submit_us;
        lat_us;
        served = true;
        checksum = r.Server.checksum;
        model_ns = r.Server.model_ns;
        serve_us =
          List.fold_left (fun a (_, d) -> a +. d) r.Server.tune_us r.Server.stages_us;
        tuner = r.Server.tuner;
        tune_us = r.Server.tune_us;
      }
  | _ ->
      {
        lens;
        rid;
        submit_us;
        lat_us;
        served = false;
        checksum = nan;
        model_ns = nan;
        serve_us = 0.0;
        tuner = "";
        tune_us = 0.0;
      }

(* [Until (t, n)]: until the absolute [now_us] time [t], and at least [n]
   requests. *)
type stop = Count of int | Until of float * int

(* Submit from this thread, one outstanding request per slot, until
   [stop]; then drain.  [on] sees every outcome, in completion order,
   with its vector, request id, submit time and latency. *)
let drive_with on fe w (src : source) stop =
  let tickets = Array.make src.slots None in
  let finish k =
    match tickets.(k) with
    | Some (lens, t0, sub, tk) ->
        let o = Frontend.await tk in
        on lens (Frontend.request_id tk) sub (now_us () -. t0) o;
        tickets.(k) <- None
    | None -> ()
  in
  let n = ref 0 and k = ref 0 in
  let go () = match stop with Count c -> !n < c | Until (t, c) -> !n < c || now_us () < t in
  while go () do
    finish !k;
    let lens = src.next !k in
    let t0 = now_us () in
    let tk = Frontend.submit_wait fe w lens in
    tickets.(!k) <- Some (lens, t0, now_us () -. t0, tk);
    incr n;
    k := (!k + 1) mod src.slots
  done;
  for j = 0 to src.slots - 1 do
    finish ((!k + j) mod src.slots)
  done

let drive fe w src stop : sample list =
  let acc = ref [] in
  drive_with (fun lens rid sub lat o -> acc := sample_of lens rid sub lat o :: !acc) fe w src stop;
  List.rev !acc

(* The timed phase's outcomes in memory that does not grow with the
   number of requests, so [peak_rss_mb] measures the server and not
   this bookkeeping: latency, modeled time and completion window go to
   a seeded uniform reservoir (Algorithm R), completions are counted per
   window, and checksums are tallied per vector and bit pattern for the
   oracle. *)
type tally = {
  lat : float array;
  model : float array;  (** nan where the request was not served *)
  win : int array;
  rng : Workloads.Rng.t;
  t0 : float;  (** start of the timed phase *)
  mutable counts : int array;  (** completions per window *)
  mutable seen : int;
  mutable served : int;
  sums : (int array, (int64 * int) list) Hashtbl.t;
  corrupt : int -> float -> float;
}

let reservoir = 1 lsl 17
let window_us = 2e6

let tally ?(corrupt = fun _ c -> c) ~seed () =
  {
    lat = Array.make reservoir 0.0;
    model = Array.make reservoir 0.0;
    win = Array.make reservoir 0;
    rng = Workloads.Rng.create seed;
    t0 = now_us ();
    counts = Array.make 64 0;
    seen = 0;
    served = 0;
    sums = Hashtbl.create 64;
    corrupt;
  }

let tally_add t lens _rid _sub lat (o : Frontend.outcome) =
  let model =
    match o with
    | Frontend.Response r ->
        t.served <- t.served + 1;
        let bits = Int64.bits_of_float (t.corrupt t.seen r.Server.checksum) in
        let l = Option.value ~default:[] (Hashtbl.find_opt t.sums lens) in
        let c = Option.value ~default:0 (List.assoc_opt bits l) in
        Hashtbl.replace t.sums lens ((bits, c + 1) :: List.remove_assoc bits l);
        r.Server.model_ns /. 1e3
    | _ -> nan
  in
  let w = int_of_float ((now_us () -. t.t0) /. window_us) in
  if w >= Array.length t.counts then
    t.counts <- Array.append t.counts (Array.make (w + 1) 0);
  t.counts.(w) <- t.counts.(w) + 1;
  let slot = if t.seen < reservoir then t.seen else Workloads.Rng.int t.rng (t.seen + 1) in
  if slot < reservoir then begin
    t.lat.(slot) <- lat;
    t.model.(slot) <- model;
    t.win.(slot) <- w
  end;
  t.seen <- t.seen + 1

let kept t = min t.seen reservoir

(* Modeled times of the served requests in whole periods of the
   source, so each shape counts equally and the median does not flip
   between neighbouring shapes with the number of requests served.  (A
   reservoir that replaced samples is already a uniform draw.) *)
let served_models t ~period =
  let n = if t.seen > reservoir then reservoir else max period (t.seen / period * period) in
  Array.of_list
    (List.filter
       (fun v -> not (Float.is_nan v))
       (Array.to_list (Array.sub t.model 0 (min n (kept t)))))

(* The machine this runs on shares its cores: its speed swings by tens
   of percent over seconds, and that noise only ever slows a window
   down.  So latency and throughput are taken over the faster half of
   the complete windows of the timed phase (ranked by completions),
   adding the next fastest until they hold [min_samples] sampled
   requests.  Returns (latencies, requests, seconds) of the kept
   windows; all windows when none is complete. *)
let fast_windows t ~elapsed_us ~min_samples =
  let complete = min (Array.length t.counts) (int_of_float (elapsed_us /. window_us)) in
  let per_win = Array.make (max 1 complete) 0 in
  for i = 0 to kept t - 1 do
    if t.win.(i) < complete then per_win.(t.win.(i)) <- per_win.(t.win.(i)) + 1
  done;
  let ranked =
    List.sort (fun a b -> compare (t.counts.(b), a) (t.counts.(a), b)) (List.init complete Fun.id)
  in
  let rec take acc sampled = function
    | w :: rest when 2 * List.length acc < complete || sampled < min_samples ->
        take (w :: acc) (sampled + per_win.(w)) rest
    | _ -> acc
  in
  match take [] 0 ranked with
  | [] -> (Array.sub t.lat 0 (kept t), t.seen, elapsed_us /. 1e6)
  | ws ->
      let keep = Array.make complete false in
      List.iter (fun w -> keep.(w) <- true) ws;
      let lat = ref [] in
      for i = kept t - 1 downto 0 do
        if t.win.(i) < complete && keep.(t.win.(i)) then lat := t.lat.(i) :: !lat
      done;
      ( Array.of_list !lat,
        List.fold_left (fun a w -> a + t.counts.(w)) 0 ws,
        float_of_int (List.length ws) *. window_us /. 1e6 )

(* ------------------------------------------------------------------ *)
(* Set-up: server, front end, inputs and warm-up, from a cold process
   state (every serving cache and the buffer arena emptied first). *)

type env = { inp : inputs; fe : Frontend.t; warm_samples : sample list }

let setup name ~seed =
  Server.reset_caches ();
  Arena.clear Arena.global;
  let inp = inputs name ~seed in
  let fe = Frontend.create ~domains:1 ?batching:inp.batching inp.srv in
  let wsrc, wn = inp.warm in
  let warm_samples = drive fe inp.w wsrc (Count wn) in
  { inp; fe; warm_samples }

(* [reps] set-ups, each timed; the last one's environment is kept.  Every
   set-up leaves memory behind (about 0.2 MB on fig1_batched, 1 to 2 MB
   on encoder_mnli), so the count stays small: [peak_rss_mb] should
   measure the server, not the repeats. *)
let setups name ~seed ~reps =
  let times = Array.make reps 0.0 in
  let rec go i =
    let t0 = now_us () in
    let e = setup name ~seed in
    times.(i) <- (now_us () -. t0) /. 1e6;
    if i + 1 < reps then begin
      Frontend.shutdown e.fe;
      go (i + 1)
    end
    else e
  in
  let e = go 0 in
  (e, times)

(* ------------------------------------------------------------------ *)
(* Oracle: a cache-bypassed interpreter server, once per distinct
   vector.  Run outside the timed phase and outside set-up. *)

type oracle = (int array, float) Hashtbl.t

let oracle_server () =
  Server.create ~compile_cache:false ~prelude_cache:false ~engine:`Interp ()

let oracle_checksum srv (o : oracle) w lens =
  match Hashtbl.find_opt o lens with
  | Some c -> c
  | None ->
      let c = (Server.handle srv w lens).Server.checksum in
      Hashtbl.add o lens c;
      c

let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

(* Requests that failed: a non-[Response] outcome or a checksum that is
   not bitwise the oracle's. *)
let count_failed w (o : oracle) (t : tally) =
  let srv = oracle_server () in
  Hashtbl.fold
    (fun lens l bad ->
      let ref_bits = Int64.bits_of_float (oracle_checksum srv o w lens) in
      List.fold_left
        (fun bad (bits, c) -> if Int64.equal bits ref_bits then bad else bad + c)
        bad l)
    t.sums (t.seen - t.served)

(* ------------------------------------------------------------------ *)
(* Untraced run: the end-to-end metrics. *)

type result = {
  attempted : int;
  failed : int;
  metrics : (string * float * string) list;  (** name, value, unit *)
  notes : string list;  (** human-readable lines printed before the JSON *)
}

let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
  let rec find () =
    match input_line ic with
    | l when String.length l > 6 && String.sub l 0 6 = "VmHWM:" ->
        Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d" (fun kb ->
            float_of_int kb /. 1024.0)
    | _ -> find ()
    | exception End_of_file -> nan
  in
  find ()

(* samples for p99 to have 10 beyond it, in the kept windows *)
let min_samples = 1000

(* Set up [setup_reps] times, then serve the timed phase into a tally;
   the front end is shut down before returning. *)
let measure ?(setup_reps = 1) ?corrupt name ~seed stop =
  let e, setup_times = setups name ~seed ~reps:setup_reps in
  Gc.full_major ();
  let t = tally ?corrupt ~seed () in
  drive_with (tally_add t) e.fe e.inp.w e.inp.src (stop t.t0);
  let elapsed_s = (now_us () -. t.t0) /. 1e6 in
  Frontend.shutdown e.fe;
  (e, setup_times, t, elapsed_s)

let run_e2e name ~seed ~seconds =
  (* enough requests that the faster half of the windows holds
     [min_samples] *)
  let e, setup_times, t, elapsed_s =
    measure ~setup_reps:7 name ~seed (fun t0 ->
        Until (t0 +. (seconds *. 1e6), (2 * min_samples) + 200))
  in
  let oracle = Hashtbl.create 64 in
  let t_oracle = now_us () in
  let failed = count_failed e.inp.w oracle t in
  let oracle_s = (now_us () -. t_oracle) /. 1e6 in
  let lat, fast_n, fast_s =
    fast_windows t ~elapsed_us:(elapsed_s *. 1e6) ~min_samples
  in
  let attempted = t.seen in
  let p50 = Stats.percentile 0.5 lat and p99 = Stats.percentile 0.99 lat in
  let model = Stats.percentile 0.5 (served_models t ~period:e.inp.period) in
  let failed_frac = float_of_int failed /. float_of_int (max 1 attempted) in
  let metrics =
    [
      ("setup_s", Stats.median setup_times, "s");
      ("req_p50_us", p50.Stats.value, "us");
      ("req_p99_us", p99.Stats.value, "us");
      ("throughput_rps", float_of_int fast_n /. fast_s, "1/s");
      ("model_us_p50", model.Stats.value, "us");
      ("peak_rss_mb", peak_rss_mb (), "MB");
    ]
  in
  let pct name unit (p : Stats.pct) =
    Printf.sprintf "%-15s %14.3f %-4s (n=%d, %d beyond)" name p.Stats.value unit p.Stats.n
      p.Stats.beyond
  in
  let notes =
    [
      Printf.sprintf "%-15s %14.4f %-4s (median of %d set-ups, %.3f to %.3f)" "setup_s"
        (Stats.median setup_times) "s" (Array.length setup_times)
        (Array.fold_left Float.min infinity setup_times)
        (Array.fold_left Float.max 0.0 setup_times);
      pct "req_p50_us" "us" p50;
      pct "req_p99_us" "us" p99;
      Printf.sprintf "%-15s %14.1f %-4s (%d requests in the faster %.0f s of %.3f s)"
        "throughput_rps" (float_of_int fast_n /. fast_s) "1/s" fast_n fast_s elapsed_s;
      Printf.sprintf "%-15s %14.4f %-4s (%d failed of %d attempted)" "failed_frac" failed_frac
        "frac" failed attempted;
      pct "model_us_p50" "us" model;
      Printf.sprintf "%-15s %14.2f %-4s (VmHWM at exit)" "peak_rss_mb" (peak_rss_mb ()) "MB";
      Printf.sprintf "oracle: %d distinct vectors checked in %.3f s" (Hashtbl.length oracle)
        oracle_s;
      Printf.sprintf "completions per %.0f s window: %s" (window_us /. 1e6)
        (String.concat " "
           (List.filter_map
              (fun c -> if c > 0 then Some (string_of_int c) else None)
              (Array.to_list t.counts)));
    ]
  in
  { attempted; failed; metrics; notes }

(* ------------------------------------------------------------------ *)
(* Decomposed replay: one request's vector through the public layer
   functions, mirroring [Server.handle]'s path for that request (job
   memo hit or miss, prelude hit, delta or build) so the per-layer
   numbers describe the program that was served.  The result must be
   bitwise the served checksum. *)

type rctx = {
  sp : Spans.t;
  memo : (string * int, Runtime.Engine.compiled) Hashtbl.t;
      (** compiled kernels by structural signature, like [Exec]'s memo *)
  mutable prelude_bytes : int list;
  mutable model_mismatch : int;
}

let rctx () =
  { sp = Spans.create (); memo = Hashtbl.create 64; prelude_bytes = []; model_mismatch = 0 }

let render_lens ls =
  String.concat "" (Array.to_list (Array.map (fun l -> "|" ^ string_of_int l) ls))

let jkey_prefix (srv : Server.t) =
  if Server.autotune_enabled srv then "auto|" ^ Ir.Optimize.level_name (Server.opt_level srv)
  else "hand"

(* The job memo entry [Server.handle] will find for [lens], if any. *)
let probe_job (srv : Server.t) (w : Workload.t) lens =
  Cora.Cache.find w.Workload.job_cache (jkey_prefix srv ^ render_lens lens)

let defs_of (j : Workload.job) =
  List.concat_map (fun (k : Cora.Lower.kernel) -> k.Cora.Lower.aux) j.Workload.kernels

(* [Server.execute] from the outside: arena buffers by tensor name,
   input fill, per kernel the signature, memoized compile and engine
   run, then unpack and release. *)
let replay_exec rc ~req ~opt ~fill (job : Workload.job) (built : Cora.Prelude.built) =
  let sp name f = Spans.with_span rc.sp ~req name f in
  let raggeds = Hashtbl.create 16 and bound = Hashtbl.create 32 and written = Hashtbl.create 16 in
  List.iter
    (fun (k : Cora.Lower.kernel) -> Hashtbl.replace written k.Cora.Lower.out.Cora.Tensor.name ())
    job.Workload.kernels;
  let bindings = ref [] in
  sp "arena.acquire" (fun () ->
      let note (t : Cora.Tensor.t) =
        if not (Hashtbl.mem bound t.Cora.Tensor.buf) then begin
          Hashtbl.add bound t.Cora.Tensor.buf ();
          let r =
            match Hashtbl.find_opt raggeds t.Cora.Tensor.name with
            | Some r -> r
            | None ->
                let n = Cora.Tensor.size_elems t ~lenv:job.Workload.lenv in
                let a = Arena.acquire_class Arena.global n in
                let r =
                  {
                    Cora.Ragged.tensor = t;
                    buf = Runtime.Buffer.of_floats a;
                    lenv = job.Workload.lenv;
                    prefix_cache = Cora.Ragged.fresh_prefix_cache t;
                  }
                in
                Hashtbl.add raggeds t.Cora.Tensor.name r;
                r
          in
          bindings := (t, r.Cora.Ragged.buf) :: !bindings
        end
      in
      List.iter
        (fun (k : Cora.Lower.kernel) ->
          note k.Cora.Lower.out;
          List.iter note k.Cora.Lower.reads)
        job.Workload.kernels);
  Fun.protect ~finally:(fun () ->
      sp "arena.release" (fun () ->
          Hashtbl.iter
            (fun _ (r : Cora.Ragged.t) ->
              Arena.release Arena.global (Runtime.Buffer.floats r.Cora.Ragged.buf))
            raggeds))
  @@ fun () ->
  sp "ragged.fill" (fun () ->
      Hashtbl.iter
        (fun name r -> if not (Hashtbl.mem written name) then Cora.Ragged.fill r (fill name))
        raggeds);
  List.iter
    (fun (k : Cora.Lower.kernel) ->
      let key = sp "sig.of_stmt" (fun () -> Cora.Sig.of_stmt k.Cora.Lower.body) in
      let mkey = (Cora.Sig.canonical key, Ir.Optimize.int_of_level opt) in
      let c =
        match Hashtbl.find_opt rc.memo mkey with
        | Some c -> c
        | None ->
            sp "engine.compile" (fun () ->
                let c = Runtime.Engine.compile ~opt k.Cora.Lower.body in
                Hashtbl.add rc.memo mkey c;
                c)
      in
      sp "exec.run" (fun () ->
          let fr = Runtime.Engine.frame c in
          List.iter
            (fun ((t : Cora.Tensor.t), b) -> Runtime.Engine.bind_buf fr t.Cora.Tensor.buf b)
            !bindings;
          List.iter (fun (name, f) -> Runtime.Engine.bind_ufun1 fr name f) job.Workload.lenv;
          List.iter
            (fun (name, v) ->
              match v with
              | Cora.Prelude.Scalar n -> Runtime.Engine.bind_ufun_const fr name n
              | Cora.Prelude.Table a -> Runtime.Engine.bind_ufun_table fr name a)
            built.Cora.Prelude.tables;
          Runtime.Engine.run fr))
    job.Workload.kernels;
  sp "ragged.unpack" (fun () ->
      match Hashtbl.find_opt raggeds job.Workload.out_name with
      | Some r -> Cora.Ragged.unpack r
      | None -> invalid_arg ("replay: no tensor named " ^ job.Workload.out_name))

(* Compile, prelude and launch-model stages, then execution; returns the
   unpacked dense output.  [cached] is the job memo entry probed before
   the served request ran; [prelude_hit] is what the served response
   reported; [kernels_ns] (unbatched only) is checked bitwise against a
   fresh launch-model evaluation. *)
let replay_job rc ~req ~srv ~(w : Workload.t) ~lens ~cached ~prelude_hit ?kernels_ns ~fill () =
  let sp name f = Spans.with_span rc.sp ~req name f in
  let prefix = jkey_prefix srv in
  let job, pkey, jopt =
    match cached with
    | Some _ ->
        let cj =
          sp "lower.build" (fun () ->
              Option.get (Cora.Cache.find w.Workload.job_cache (prefix ^ render_lens lens)))
        in
        ( cj.Workload.c_job,
          cj.Workload.c_pkey,
          Option.fold ~none:(Server.opt_level srv) ~some:Ir.Optimize.level_of_int
            cj.Workload.c_opt )
    | None ->
        let job, _ =
          sp "lower.build" (fun () ->
              Cora.Lower.with_memo ~cache:true (fun () -> w.Workload.build lens))
        in
        let pkey =
          sp "sig.of_tables" (fun () ->
              Cora.Prelude_cache.key_of
                ~tables_sig:(Cora.Sig.of_tables job.Workload.tables)
                (defs_of job))
        in
        (job, pkey, Server.opt_level srv)
  in
  let defs () = defs_of job in
  let built =
    if prelude_hit then
      sp "prelude.lookup" (fun () ->
          fst (Cora.Prelude_cache.build_keyed ~key:pkey defs job.Workload.lenv))
    else
      (* a predecessor still in the job memo was served recently enough
         to be in the (larger) prelude cache: the server delta-updates
         from it; otherwise it builds the whole prelude *)
      let prev_entry =
        Option.bind w.Workload.prev_tables (fun f ->
            Option.bind (f lens) (fun (plens, _) ->
                sp "prelude.lookup" (fun () ->
                    Cora.Cache.find w.Workload.job_cache (prefix ^ render_lens plens))))
      in
      match prev_entry with
      | Some cj ->
          let old_lenv = cj.Workload.c_job.Workload.lenv in
          let prev =
            sp "prelude.lookup" (fun () ->
                fst (Cora.Prelude_cache.build_keyed ~key:cj.Workload.c_pkey defs old_lenv))
          in
          sp "prelude.delta" (fun () ->
              Cora.Prelude.delta_update ~prev ~old_lenv (defs ()) job.Workload.lenv)
      | None ->
          sp "prelude.build" (fun () ->
              Cora.Prelude.build ~dedup_defs:true (defs ()) job.Workload.lenv)
  in
  rc.prelude_bytes <- Cora.Prelude.bytes built :: rc.prelude_bytes;
  (* a job memo hit is a launch-model memo hit too (same request
     identity, larger memo); a miss evaluates the model *)
  if cached = None then begin
    let pt =
      sp "launch.pipeline" (fun () ->
          Machine.Launch.pipeline ~engine:(Server.engine srv) ~opt:(Server.opt_level srv)
            ~prelude:built ~device:Machine.Device.v100 ~lenv:job.Workload.lenv
            job.Workload.launches)
    in
    match kernels_ns with
    | Some k when not (same_bits k pt.Machine.Launch.kernels_ns) ->
        rc.model_mismatch <- rc.model_mismatch + 1
    | _ -> ()
  end;
  replay_exec rc ~req ~opt:jopt ~fill job built

let checksum a = Array.fold_left ( +. ) 0.0 a

(* ------------------------------------------------------------------ *)
(* Traced run. *)

(* Per-layer observations of the served requests (from responses). *)
type served_stats = {
  mutable handle_us : float list;  (** per [Server.handle] call *)
  mutable stage_us : (string * float) list list;
  mutable jm_hits : int;
  mutable jm_probes : int;
  mutable compile_hits : int;
  mutable compile_misses : int;
  mutable prelude_hits : int;
  mutable engine_hits : int;
  mutable engine_misses : int;
  mutable arena_hits : int;
  mutable arena_misses : int;
  mutable kernels_ns : float list;
  mutable scalar_ops : int list;
  mutable responses : int;
  mutable batch_run_us : float list;
  mutable replay_us : float list;  (** replay root wall, per unit *)
  mutable serve_unit_us : float list;  (** served wall, per unit *)
  mutable mismatches : int;
  mutable units : int;
  mutable checked : (int array * float) list;
      (** (vector, replayed checksum), compared with the oracle after the
          replay loop *)
}

let served_stats () =
  {
    handle_us = [];
    stage_us = [];
    jm_hits = 0;
    jm_probes = 0;
    compile_hits = 0;
    compile_misses = 0;
    prelude_hits = 0;
    engine_hits = 0;
    engine_misses = 0;
    arena_hits = 0;
    arena_misses = 0;
    kernels_ns = [];
    scalar_ops = [];
    responses = 0;
    batch_run_us = [];
    replay_us = [];
    serve_unit_us = [];
    mismatches = 0;
    units = 0;
    checked = [];
  }

let note_response st (r : Server.response) =
  st.responses <- st.responses + 1;
  st.compile_hits <- st.compile_hits + r.Server.compile_hits;
  st.compile_misses <- st.compile_misses + r.Server.compile_misses;
  if r.Server.prelude_hit then st.prelude_hits <- st.prelude_hits + 1;
  st.engine_hits <- st.engine_hits + r.Server.engine_hits;
  st.engine_misses <- st.engine_misses + r.Server.engine_misses;
  st.arena_hits <- st.arena_hits + r.Server.arena_hits;
  st.arena_misses <- st.arena_misses + r.Server.arena_misses;
  st.kernels_ns <- r.Server.kernels_ns :: st.kernels_ns;
  st.scalar_ops <-
    List.fold_left
      (fun a (n, v) -> match n with "loads" | "stores" | "flops" -> a + v | _ -> a)
      0
      (Option.value ~default:[] r.Server.counters)
    :: st.scalar_ops

let last_root_us (sp : Spans.t) =
  match List.find_opt (fun (s : Spans.span) -> s.Spans.parent < 0) sp.Spans.spans with
  | Some s -> Spans.dur s
  | None -> 0.0

(* One unbatched request: probe the job memo, serve it with a direct
   [Server.handle] call (the served program), then replay it. *)
let replay_unit_single rc st (e : env) ~req lens =
  let srv = e.inp.srv and w = e.inp.w in
  let cached = probe_job srv w lens in
  st.jm_probes <- st.jm_probes + 1;
  if cached <> None then st.jm_hits <- st.jm_hits + 1;
  let t0 = now_us () in
  let r = Server.handle srv w lens in
  let h = now_us () -. t0 in
  st.handle_us <- h :: st.handle_us;
  st.serve_unit_us <- h :: st.serve_unit_us;
  st.stage_us <- r.Server.stages_us :: st.stage_us;
  note_response st r;
  let out =
    Spans.with_span rc.sp ~req "replay" (fun () ->
        replay_job rc ~req ~srv ~w ~lens ~cached ~prelude_hit:r.Server.prelude_hit
          ~kernels_ns:r.Server.kernels_ns ~fill:Server.default_fill ())
  in
  st.replay_us <- last_root_us rc.sp :: st.replay_us;
  let c = checksum out in
  if not (same_bits c r.Server.checksum) then st.mismatches <- st.mismatches + 1;
  st.checked <- (lens, c) :: st.checked;
  st.units <- st.units + 1

(* One batching window: [Batcher.run] serves it (the served program);
   the replay then packs, merges, runs each mega-batch's vector with
   member-localized inputs, and splits. *)
let replay_unit_window rc st (e : env) cfg ~req (ms : int array array) =
  let srv = e.inp.srv and w = e.inp.w in
  let bd = Option.get w.Workload.batching in
  let tile = cfg.Batcher.tile and max_batch = cfg.Batcher.max_batch in
  let bins = (Batcher.plan ~tile ~max_batch (Array.map bd.Workload.rows ms)).Batcher.Pack.bins in
  let mega_of (b : Batcher.Pack.bin) =
    let ls = Array.to_list (Array.map (fun j -> ms.(j)) b.Batcher.Pack.members) in
    (ls, bd.Workload.merge ls)
  in
  let cached =
    Array.map
      (fun b ->
        st.jm_probes <- st.jm_probes + 1;
        let c = probe_job srv w (snd (mega_of b)) in
        if c <> None then st.jm_hits <- st.jm_hits + 1;
        c)
      bins
  in
  let members =
    Array.mapi
      (fun i l -> { Batcher.m_lens = l; m_deadline_us = infinity; m_id = (req * 64) + i })
      ms
  in
  let t0 = now_us () in
  let outs = Batcher.run cfg srv w members in
  let run_us = now_us () -. t0 in
  st.batch_run_us <- run_us :: st.batch_run_us;
  st.serve_unit_us <- run_us :: st.serve_unit_us;
  let served = Array.make (Array.length ms) nan in
  let by_batch = Hashtbl.create 8 in
  Array.iteri
    (fun i o ->
      match o with
      | Batcher.Served { resp; batch_id; _ } ->
          served.(i) <- resp.Server.checksum;
          note_response st resp;
          let prev = Option.value ~default:[] (Hashtbl.find_opt by_batch batch_id) in
          Hashtbl.replace by_batch batch_id (resp.Server.stages_us :: prev)
      | _ -> st.mismatches <- st.mismatches + 1)
    outs;
  (* a mega-batch's stage times are its members' shares summed *)
  Hashtbl.iter
    (fun _ members ->
      let sum =
        List.fold_left
          (fun acc stages ->
            List.map
              (fun (n, d) -> (n, d +. Option.value ~default:0.0 (List.assoc_opt n acc)))
              stages)
          [] members
      in
      st.stage_us <- sum :: st.stage_us;
      st.handle_us <- List.fold_left (fun a (_, d) -> a +. d) 0.0 sum :: st.handle_us)
    by_batch;
  let sp name f = Spans.with_span rc.sp ~req name f in
  Spans.with_span rc.sp ~req "replay" (fun () ->
      let plan =
        sp "batcher.plan" (fun () ->
            Batcher.Pack.pack ~tile ~max_batch (Array.map bd.Workload.rows ms))
      in
      Array.iteri
        (fun bi (b : Batcher.Pack.bin) ->
          let ls, mega, fill =
            sp "batcher.merge" (fun () ->
                let ls, mega = mega_of b in
                let local = bd.Workload.local_index ls in
                (ls, mega, fun name idx -> Server.default_fill name (local name idx)))
          in
          (* the served response's prelude flag is shared by the batch *)
          let prelude_hit =
            match outs.(b.Batcher.Pack.members.(0)) with
            | Batcher.Served { resp; _ } -> resp.Server.prelude_hit
            | _ -> false
          in
          let dense =
            replay_job rc ~req ~srv ~w ~lens:mega ~cached:cached.(bi) ~prelude_hit ~fill ()
          in
          let parts = sp "batcher.split" (fun () -> bd.Workload.split ls dense) in
          List.iteri
            (fun k part ->
              let i = b.Batcher.Pack.members.(k) in
              let c = checksum part in
              if not (same_bits c served.(i)) then st.mismatches <- st.mismatches + 1;
              st.checked <- (ms.(i), c) :: st.checked)
            parts)
        plan.Batcher.Pack.bins);
  st.replay_us <- last_root_us rc.sp :: st.replay_us;
  st.units <- st.units + 1

let variants =
  [
    "dot.sum_u4"; "dot.sum_s4"; "dot.combine_s"; "dot.generic"; "dot.tile4"; "dot.tile4_masked";
    "reduce1.sum_u4"; "reduce1.sum_s"; "reduce1.combine_s"; "reduce1.generic"; "copy.blit";
    "copy.strided"; "copy.generic"; "scale.u4"; "scale.strided"; "scale.generic";
  ]

let layer_names =
  [
    "lower.build"; "sig.of_tables"; "sig.of_stmt"; "prelude.lookup"; "prelude.build";
    "prelude.delta"; "launch.pipeline"; "arena.acquire"; "ragged.fill"; "engine.compile";
    "exec.run"; "ragged.unpack"; "arena.release"; "batcher.plan"; "batcher.merge";
    "batcher.split"; "replay";
  ]

(* replay units per traced run, at most *)
let max_units = 400

let run_traced name ~seed ~seconds =
  Obs.Flight.set_capacity 65536;
  let e = setup name ~seed in
  let inp = e.inp in
  Gc.full_major ();
  (* untraced then traced closed loop, a quarter of the time each *)
  let quarter = seconds *. 1e6 /. 4.0 in
  let untraced = drive e.fe inp.w inp.src (Until (now_us () +. quarter, 0)) in
  (* whole periods, so both loops see the same request mix *)
  let n0 = List.length untraced in
  let untraced =
    untraced @ drive e.fe inp.w inp.src (Count ((inp.period - (n0 mod inp.period)) mod inp.period))
  in
  Obs.Flight.clear ();
  (* as many requests again, within the flight recorder's capacity *)
  let traced = drive e.fe inp.w inp.src (Count (min 60_000 (List.length untraced))) in
  (* the loop's spans, from the samples' own timestamps *)
  let fspans =
    List.concat_map
      (fun s ->
        [ ("request", s.rid, s.lat_us); ("frontend.submit", s.rid, s.submit_us) ])
      traced
  in
  Frontend.shutdown e.fe;
  let mean_lat l = Stats.mean (Array.of_list (List.map (fun s -> s.lat_us) l)) in
  let overhead = (mean_lat traced /. mean_lat untraced) -. 1.0 in
  (* the time each request's Server/Batcher call took: its own stages,
     or the summed stages of the mega-batch it rode in *)
  let flight = Obs.Flight.records () in
  let batch_time = Hashtbl.create 256 in
  List.iter
    (fun (r : Obs.Flight.record) ->
      if r.Obs.Flight.batch_id > 0 then
        let d = List.fold_left (fun a (_, x) -> a +. x) 0.0 r.Obs.Flight.stages_us in
        Hashtbl.replace batch_time r.Obs.Flight.batch_id
          (d +. Option.value ~default:0.0 (Hashtbl.find_opt batch_time r.Obs.Flight.batch_id)))
    flight;
  let batch_of = Hashtbl.create 1024 in
  List.iter
    (fun (r : Obs.Flight.record) ->
      Hashtbl.replace batch_of r.Obs.Flight.id (r.Obs.Flight.batch_id, r.Obs.Flight.batch_size))
    flight;
  let server_time s =
    match Hashtbl.find_opt batch_of s.rid with
    | Some (b, _) when b > 0 -> Option.value ~default:s.serve_us (Hashtbl.find_opt batch_time b)
    | _ -> s.serve_us
  in
  let wait = Array.of_list (List.map (fun s -> s.lat_us -. server_time s) traced) in
  let sizes =
    Array.of_list
      (List.filter_map
         (fun s ->
           match Hashtbl.find_opt batch_of s.rid with
           | Some (b, n) when b > 0 -> Some (float_of_int n)
           | _ -> None)
         traced)
  in
  (* decomposed replay on this thread, continuing the same sequence *)
  let rc = rctx () and st = served_stats () in
  let t_end = now_us () +. (seconds *. 1e6 /. 2.0) in
  let req = ref 0 in
  while now_us () < t_end && !req < max_units do
    (match inp.batching with
    | None -> replay_unit_single rc st e ~req:!req (inp.src.next (!req mod inp.src.slots))
    | Some cfg ->
        let ms = Array.init inp.src.slots (fun k -> inp.src.next k) in
        replay_unit_window rc st e cfg ~req:!req ms);
    incr req
  done;
  let oracle = Hashtbl.create 64 and osrv = oracle_server () in
  List.iter
    (fun (lens, c) ->
      if not (same_bits c (oracle_checksum osrv oracle inp.w lens)) then
        st.mismatches <- st.mismatches + 1)
    st.checked;
  (* per-unit layer self times *)
  let per = Spans.per_request rc.sp in
  let units = Hashtbl.fold (fun _ v acc -> v :: acc) per [] in
  let nunits = float_of_int (max 1 (List.length units)) in
  let layer_mean name =
    List.fold_left
      (fun a (_, layers) -> a +. Option.value ~default:0.0 (Hashtbl.find_opt layers name))
      0.0 units
    /. nunits
  in
  (* coverage on the median unit: the replay root's own (glue) time *)
  let by_wall = List.sort (fun (a, _) (b, _) -> Float.compare a b) units in
  let uncovered =
    match List.nth_opt by_wall (List.length by_wall / 2) with
    | Some (wall, layers) when wall > 0.0 ->
        Option.value ~default:0.0 (Hashtbl.find_opt layers "replay") /. wall
    | _ -> 0.0
  in
  let farr l = Array.of_list l in
  let mean_l l = Stats.mean (farr l) in
  let frac a b = if a + b = 0 then 0.0 else float_of_int a /. float_of_int (a + b) in
  let stage name =
    Stats.mean
      (farr (List.map (fun s -> Option.value ~default:0.0 (List.assoc_opt name s)) st.stage_us))
  in
  let ctr n = float_of_int (Obs.Metrics.value (Obs.Metrics.counter n)) in
  let actual = ctr "batcher.elems_actual"
  and padded = ctr "batcher.elems_padded"
  and naive = ctr "batcher.elems_naive" in
  let waste d = if d > 0.0 then 1.0 -. (actual /. d) else 0.0 in
  let tunes = List.filter (fun s -> s.tuner = "miss") e.warm_samples in
  let exec_us = layer_mean "exec.run" in
  let ops = mean_l (List.map float_of_int st.scalar_ops) in
  let us n v = (n, v, "us") in
  let metrics =
    [
      us "frontend.submit_us" (Stats.mean (farr (List.map (fun s -> s.submit_us) traced)));
      us "frontend.wait_us" (Stats.mean wait);
      us "batcher.run_us" (mean_l st.batch_run_us);
      us "batcher.plan_us" (layer_mean "batcher.plan");
      ("batcher.batch_size_mean", Stats.mean sizes, "count");
      ("batcher.padding_waste_frac", waste padded, "frac");
      ("batcher.naive_padding_waste_frac", waste naive, "frac");
      us "server.handle_us" (mean_l st.handle_us);
      us "server.compile_us" (stage "compile");
      us "server.prelude_us" (stage "prelude");
      us "server.launch_us" (stage "launch");
      us "server.execute_us" (stage "execute");
      ("server.job_memo_hit_frac", frac st.jm_hits (st.jm_probes - st.jm_hits), "frac");
      us "lower.build_us" (layer_mean "lower.build");
      ("lower.memo_hit_frac", frac st.compile_hits st.compile_misses, "frac");
      us "sig.of_stmt_us" (layer_mean "sig.of_stmt");
      us "sig.of_tables_us" (layer_mean "sig.of_tables");
      us "prelude.build_us" (layer_mean "prelude.build" +. layer_mean "prelude.lookup");
      us "prelude.delta_us" (layer_mean "prelude.delta");
      ("prelude.bytes", mean_l (List.map float_of_int rc.prelude_bytes), "B");
      ("prelude_cache.hit_frac", frac st.prelude_hits (st.responses - st.prelude_hits), "frac");
      us "launch.pipeline_us" (layer_mean "launch.pipeline");
      us "launch.kernels_model_us" (mean_l st.kernels_ns /. 1e3);
      us "ragged.fill_us" (layer_mean "ragged.fill");
      us "ragged.unpack_us" (layer_mean "ragged.unpack");
      ("arena.hit_frac", frac st.arena_hits st.arena_misses, "frac");
      ("arena.stored", float_of_int (Arena.stored Arena.global), "count");
      us "exec.run_us" exec_us;
      us "engine.compile_us" (layer_mean "engine.compile");
      ("engine.memo_hit_frac", frac st.engine_hits st.engine_misses, "frac");
      ("engine.scalar_ops", ops, "count");
      ("engine.ops_per_us", (if exec_us > 0.0 then ops /. exec_us else 0.0), "1/us");
    ]
    @ List.map
        (fun v -> ("engine.mk_variant." ^ v, ctr ("engine.mk_variant." ^ v), "count"))
        variants
    @ [
        us "tuner.tune_us" (Stats.mean (farr (List.map (fun s -> s.tune_us) tunes)));
        ( "tuner.tuned_frac",
          (let n = List.length traced in
           if n = 0 then 0.0
           else
             float_of_int (List.length (List.filter (fun s -> s.tuner = "tuned") traced))
             /. float_of_int n),
          "frac" );
        ("trace.overhead_frac", overhead, "frac");
        ("trace.uncovered_frac", uncovered, "frac");
        ("trace.replay_over_serve", mean_l st.replay_us /. mean_l st.serve_unit_us, "ratio");
      ]
  in
  let failed = st.mismatches + rc.model_mismatch in
  let notes =
    [
      Printf.sprintf
        "traced: %d loop requests (untraced %d), %d replay units, %d mismatches, %d \
         launch-model mismatches"
        (List.length traced) (List.length untraced) st.units st.mismatches rc.model_mismatch;
    ]
  in
  (* spans and per-layer self times, written at exit *)
  let trace_json =
    Obs.Json.Obj
      [
        ("workload", Obs.Json.String name);
        ("seed", Obs.Json.Int seed);
        ( "front",
          Obs.Json.List
            (List.map
               (fun (n, rid, d) ->
                 Obs.Json.Obj
                   [
                     ("name", Obs.Json.String n);
                     ("req", Obs.Json.Int rid);
                     ("dur_us", Obs.Json.Float d);
                   ])
               fspans) );
        ("replay_spans", Spans.to_json rc.sp);
        ( "layer_self_us_mean",
          Obs.Json.Obj (List.map (fun n -> (n, Obs.Json.Float (layer_mean n))) layer_names) );
        ( "metrics",
          Obs.Json.Obj (List.map (fun (n, v, _) -> (n, Obs.Json.Float v)) metrics) );
      ]
  in
  ( { attempted = List.length traced + st.units; failed; metrics; notes }, trace_json )
