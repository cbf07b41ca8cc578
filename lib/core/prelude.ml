(** Prelude: host-side construction of auxiliary data structures (§2, §5).

    Storage lowering and vloop fusion emit references to uninterpreted
    functions whose values depend only on the raggedness pattern (insight I1
    of the paper: lengths are known before the kernel runs).  Each such
    function is described here as a {!def}; [build] materialises all of
    them from the concrete length-function environment, yielding runtime
    tables plus the time/memory accounting reported in §7.4 (and the
    host→device copy volume). *)

type kind =
  | Storage  (** ragged-storage offset arrays, CoRa's [A_d] (§B.1) *)
  | Loop_fusion  (** fused-vloop maps [f_fo]/[f_fi]/offsets/totals (§5.1) *)

type value = Scalar of int | Table of int array

type def = {
  name : string;  (** doubles as the uninterpreted-function name in the IR *)
  kind : kind;
  compute : Lenfun.env -> value;
  work : Lenfun.env -> int;
      (** host operations needed to build it (≈ entries written) *)
  c_src : string option;
      (** host-side C implementation, when the def comes from one of the
          standard constructors (emitted by {!Codegen_c.prelude}) *)
  update : (prev:value -> old_lenv:Lenfun.env -> Lenfun.env -> (value * int) option) option;
      (** incremental maintenance: given the table built for [old_lenv],
          produce the table for the new environment touching only changed
          rows (decode steps grow lengths by one, so most padded slice
          sizes — and hence most table entries — are unchanged).  Returns
          the new value and the host operations actually performed, or
          [None] when the previous value is unusable (shape mismatch) and
          the caller must fall back to {!def.compute}.  When nothing
          changed the {e previous} value is returned physically, sharing
          the array. *)
}

(** Result of running the prelude for one kernel/pipeline. *)
type built = {
  tables : (string * value) list;
  storage_entries : int;  (** int entries in Storage aux structures *)
  fusion_entries : int;  (** int entries in Loop_fusion aux structures *)
  storage_work : int;
  fusion_work : int;
}

let value_entries = function Scalar _ -> 1 | Table a -> Array.length a

(** Deduplicate defs by name: CoRa shares auxiliary structures across
    operators and layers when the raggedness pattern is the same (§7.4,
    CoRa-Optimized).  Keeping duplicates models CoRa-Redundant. *)
let dedup defs =
  let seen = Hashtbl.create 16 in
  List.filter
    (fun d ->
      if Hashtbl.mem seen d.name then false
      else begin
        Hashtbl.add seen d.name ();
        true
      end)
    defs

(* registered once: a registry lookup takes the registry lock, and
   [build] / [delta_update] run on the serving path *)
let dedup_hits_c = Obs.Metrics.counter "prelude.dedup_hits"
let built_c = Obs.Metrics.counter "prelude.tables_built"
let delta_c = Obs.Metrics.counter "prelude.tables_delta_updated"
let shared_c = Obs.Metrics.counter "prelude.tables_shared"
let entries_h = Obs.Metrics.histogram "prelude.table_entries"

(** Build all aux structures.  [dedup_defs:false] reproduces the redundant
    per-operator computation of the unoptimized prototype (Tables 7–8). *)
let build ?(dedup_defs = true) (defs : def list) (lenv : Lenfun.env) : built =
  Obs.Span.with_span "prelude.build" @@ fun () ->
  let requested = List.length defs in
  let defs = if dedup_defs then dedup defs else defs in
  let dedup_hits = requested - List.length defs in
  Obs.Metrics.add dedup_hits_c dedup_hits;
  Obs.Metrics.add built_c (List.length defs);
  let tables =
    List.map
      (fun d ->
        Obs.Span.with_span ~attrs:[ ("table", Obs.Trace_sink.Str d.name) ] "prelude.def"
        @@ fun () ->
        let v = d.compute lenv in
        Obs.Span.add_attr "entries" (Obs.Trace_sink.Int (value_entries v));
        Obs.Metrics.observe entries_h (float_of_int (value_entries v));
        (d.name, v))
      defs
  in
  let acc kind f =
    List.fold_left2
      (fun total d (_, v) -> if d.kind = kind then total + f d v else total)
      0 defs tables
  in
  let built =
    {
      tables;
      storage_entries = acc Storage (fun _ v -> value_entries v);
      fusion_entries = acc Loop_fusion (fun _ v -> value_entries v);
      storage_work = acc Storage (fun d _ -> d.work lenv);
      fusion_work = acc Loop_fusion (fun d _ -> d.work lenv);
    }
  in
  Obs.Span.add_attr "dedup_hits" (Obs.Trace_sink.Int dedup_hits);
  Obs.Span.add_attr "storage_entries" (Obs.Trace_sink.Int built.storage_entries);
  Obs.Span.add_attr "fusion_entries" (Obs.Trace_sink.Int built.fusion_entries);
  Obs.Span.add_attr "bytes"
    (Obs.Trace_sink.Int (4 * (built.storage_entries + built.fusion_entries)));
  built

(* When enabled, every delta-updated table is rebuilt from scratch and
   compared bitwise — the differential oracle for the incremental path.
   Read-mostly flag shared across serving domains, hence Atomic. *)
let delta_check = Atomic.make false
let set_delta_check b = Atomic.set delta_check b

let value_equal a b =
  match (a, b) with
  | Scalar x, Scalar y -> x = y
  | Table x, Table y -> x = y
  | _ -> false

exception Delta_mismatch of string

(** Delta-update every table from [prev] (built for [old_lenv]) to the new
    environment.  Defs without an [update] function, defs absent from
    [prev], and defs whose updater declines (shape mismatch) fall back to
    a from-scratch {!def.compute} and count as [prelude.tables_built];
    successful updates count as [prelude.tables_delta_updated] (plus
    [prelude.tables_shared] when the previous array is reused by
    reference).  Work accounting records the operations actually
    performed, so the modeled host time shrinks with the delta. *)
let delta_update ?(dedup_defs = true) ~(prev : built) ~(old_lenv : Lenfun.env)
    (defs : def list) (lenv : Lenfun.env) : built =
  Obs.Span.with_span "prelude.delta_update" @@ fun () ->
  let requested = List.length defs in
  let defs = if dedup_defs then dedup defs else defs in
  Obs.Metrics.add dedup_hits_c (requested - List.length defs);
  let works : (string, int) Hashtbl.t = Hashtbl.create 16 in
  let tables =
    List.map
      (fun d ->
        let fallback () =
          Obs.Metrics.incr built_c;
          Hashtbl.replace works d.name (d.work lenv);
          d.compute lenv
        in
        let v =
          match d.update with
          | None -> fallback ()
          | Some u -> (
              match List.assoc_opt d.name prev.tables with
              | None -> fallback ()
              | Some pv -> (
                  match u ~prev:pv ~old_lenv lenv with
                  | None -> fallback ()
                  | Some (v, wk) ->
                      Obs.Metrics.incr delta_c;
                      if v == pv then Obs.Metrics.incr shared_c;
                      Hashtbl.replace works d.name wk;
                      v))
        in
        if Atomic.get delta_check then begin
          let full = d.compute lenv in
          if not (value_equal v full) then raise (Delta_mismatch d.name)
        end;
        Obs.Metrics.observe entries_h (float_of_int (value_entries v));
        (d.name, v))
      defs
  in
  let acc kind f =
    List.fold_left2
      (fun total d (_, v) -> if d.kind = kind then total + f d v else total)
      0 defs tables
  in
  {
    tables;
    storage_entries = acc Storage (fun _ v -> value_entries v);
    fusion_entries = acc Loop_fusion (fun _ v -> value_entries v);
    storage_work = acc Storage (fun d _ -> Hashtbl.find works d.name);
    fusion_work = acc Loop_fusion (fun d _ -> Hashtbl.find works d.name);
  }

(** Memory footprint in bytes (4-byte entries, as the paper reports). *)
let bytes built = 4 * (built.storage_entries + built.fusion_entries)

let storage_bytes built = 4 * built.storage_entries
let fusion_bytes built = 4 * built.fusion_entries

(** Bind every built table as an uninterpreted function in an interpreter
    environment. *)
let bind_all (built : built) (env : Runtime.Interp.env) =
  List.iter
    (fun (name, v) ->
      match v with
      | Scalar n -> Runtime.Interp.bind_ufun env name (fun _ -> n)
      | Table a -> Runtime.Interp.bind_ufun_array env name a)
    built.tables

(** Bind the raw length functions themselves (the kernel may reference them
    directly as loop extents). *)
let bind_lenfuns (lenv : Lenfun.env) (env : Runtime.Interp.env) =
  List.iter (fun (name, f) -> Runtime.Interp.bind_ufun1 env name f) lenv

(* ------------------------------------------------------------------ *)
(* Standard definitions used by storage lowering and loop fusion.      *)

(** Prefix-sum array over padded slice sizes:
    [psum\[x\] = Σ_{t<x} pad_to (fn t) pad], with [count + 1] entries.
    This is both the factored storage offset array for a (cdim, vdim) pair
    and the fused-loop offset array [f_oif(o, i) = psum\[o\] + i]. *)
let psum_def ~name ~fn_name ~count ~pad : def =
  {
    name;
    kind = Storage;
    c_src =
      Some
        (Printf.sprintf
           "void build_%s(const int* %s, int* %s) {\n  %s[0] = 0;\n  for (int t = 0; t < %d; ++t)\n    %s[t + 1] = %s[t] + %s;\n}\n"
           name fn_name name name count name name
           (if pad <= 1 then Printf.sprintf "%s[t]" fn_name
            else Printf.sprintf "((%s[t] + %d) / %d) * %d" fn_name (pad - 1) pad pad));
    compute =
      (fun lenv ->
        let f = Lenfun.lookup lenv fn_name in
        let a = Array.make (count + 1) 0 in
        for t = 0 to count - 1 do
          a.(t + 1) <- a.(t) + Shape.pad_to (f t) pad
        done;
        Table a);
    work = (fun _ -> count + 1);
    update =
      Some
        (fun ~prev ~old_lenv:_ lenv ->
          match prev with
          | Table old when Array.length old = count + 1 ->
              let f = Lenfun.lookup lenv fn_name in
              (* old padded slice sizes are the deltas of the old psum, so
                 the scan needs no old environment *)
              let t0 = ref count in
              (try
                 for t = 0 to count - 1 do
                   if old.(t + 1) - old.(t) <> Shape.pad_to (f t) pad then begin
                     t0 := t;
                     raise Exit
                   end
                 done
               with Exit -> ());
              if !t0 = count then Some (prev, count)
              else begin
                let a = Array.make (count + 1) 0 in
                Array.blit old 0 a 0 (!t0 + 1);
                for t = !t0 to count - 1 do
                  a.(t + 1) <- a.(t) + Shape.pad_to (f t) pad
                done;
                Some (Table a, count + (count - !t0))
              end
          | _ -> None);
  }

(** General prefix-sum of per-slice volumes for storage lowering when the
    slice volume is not a constant multiple of a single length function
    (e.g. the attention tensor, volume [H * s(b)^2]).  The entry count may
    itself be length-dependent (nested raggedness: the row dimension of a
    triangular attention matrix has as many distinct values as the longest
    sequence), so it is a function of the environment. *)
let volume_psum_def ~name ~(count : Lenfun.env -> int) ~(volume : Lenfun.env -> int -> int) :
    def =
  {
    name;
    kind = Storage;
    c_src =
      Some
        (Printf.sprintf
           "void build_%s(int count, int (*volume)(int), int* %s) {\n  %s[0] = 0;\n  for (int t = 0; t < count; ++t) %s[t + 1] = %s[t] + volume(t);\n}\n"
           name name name name name);
    compute =
      (fun lenv ->
        let n = count lenv in
        let a = Array.make (n + 1) 0 in
        for t = 0 to n - 1 do
          a.(t + 1) <- a.(t) + volume lenv t
        done;
        Table a);
    work = (fun lenv -> count lenv + 1);
    update =
      Some
        (fun ~prev ~old_lenv lenv ->
          match prev with
          | Table old when Array.length old = count old_lenv + 1 ->
              let n_old = count old_lenv and n = count lenv in
              let m = min n_old n in
              let t0 = ref m in
              (try
                 for t = 0 to m - 1 do
                   if old.(t + 1) - old.(t) <> volume lenv t then begin
                     t0 := t;
                     raise Exit
                   end
                 done
               with Exit -> ());
              if n = n_old && !t0 = n then Some (prev, n)
              else begin
                let a = Array.make (n + 1) 0 in
                Array.blit old 0 a 0 (!t0 + 1);
                for t = !t0 to n - 1 do
                  a.(t + 1) <- a.(t) + volume lenv t
                done;
                Some (Table a, m + 1 + (n - !t0))
              end
          | _ -> None);
  }

(** Pointwise table: [name.(x) = value lenv x] for [x < count lenv] — used
    for subtree-volume strides when a dimension's inner region contains an
    internal ragged pair. *)
let pointwise_def ~name ~(count : Lenfun.env -> int) ~(value : Lenfun.env -> int -> int) : def =
  {
    name;
    kind = Storage;
    c_src =
      Some
        (Printf.sprintf
           "void build_%s(int count, int (*value)(int), int* %s) {\n  for (int t = 0; t < count; ++t) %s[t] = value(t);\n}\n"
           name name name);
    compute =
      (fun lenv ->
        let n = count lenv in
        Table (Array.init n (value lenv)));
    work = (fun lenv -> count lenv);
    update =
      Some
        (fun ~prev ~old_lenv lenv ->
          match prev with
          | Table old when Array.length old = count old_lenv ->
              let n_old = count old_lenv and n = count lenv in
              let m = min n_old n in
              let t0 = ref m in
              (try
                 for t = 0 to m - 1 do
                   if old.(t) <> value lenv t then begin
                     t0 := t;
                     raise Exit
                   end
                 done
               with Exit -> ());
              if n = n_old && !t0 = n then Some (prev, n)
              else begin
                let a = Array.make n 0 in
                Array.blit old 0 a 0 !t0;
                for t = !t0 to n - 1 do
                  a.(t) <- value lenv t
                done;
                Some (Table a, m + (n - !t0))
              end
          | _ -> None);
  }

(** Scalar value computed by the prelude. *)
let scalar_def ~name ~(value : Lenfun.env -> int) : def =
  {
    name;
    kind = Storage;
    c_src = None;
    compute = (fun lenv -> Scalar (value lenv));
    work = (fun _ -> 1);
    update =
      Some
        (fun ~prev ~old_lenv:_ lenv ->
          let v = value lenv in
          match prev with Scalar s when s = v -> Some (prev, 1) | _ -> Some (Scalar v, 1));
  }

(** Fused-loop total [F]: sum of padded slice sizes, bulk-padded (§7.2). *)
let fused_total_def ~name ~fn_name ~count ~pad ~bulk : def =
  {
    name;
    kind = Loop_fusion;
    c_src =
      Some
        (Printf.sprintf
           "int build_%s(const int* %s) {\n  int total = 0;\n  for (int t = 0; t < %d; ++t) total += %s;\n  return ((total + %d) / %d) * %d;\n}\n"
           name fn_name count
           (if pad <= 1 then Printf.sprintf "%s[t]" fn_name
            else Printf.sprintf "((%s[t] + %d) / %d) * %d" fn_name (pad - 1) pad pad)
           (bulk - 1) (max bulk 1) (max bulk 1));
    compute =
      (fun lenv ->
        let f = Lenfun.lookup lenv fn_name in
        let total = ref 0 in
        for t = 0 to count - 1 do
          total := !total + Shape.pad_to (f t) pad
        done;
        Scalar (Shape.pad_to !total bulk));
    work = (fun _ -> count);
    update =
      Some
        (fun ~prev ~old_lenv:_ lenv ->
          let f = Lenfun.lookup lenv fn_name in
          let total = ref 0 in
          for t = 0 to count - 1 do
            total := !total + Shape.pad_to (f t) pad
          done;
          let v = Shape.pad_to !total bulk in
          match prev with Scalar s when s = v -> Some (prev, count) | _ -> Some (Scalar v, count));
  }

(** Fused-loop mapping arrays (§5.1): [f_fo f] and [f_fi f] recover the
    outer/inner iteration variables from the fused one.  Entries in the
    bulk-padding region map to a virtual row [count] starting at the real
    total, so padded iterations still touch only the (bulk-padded) buffer
    tail. *)
let fused_map_defs ~fo_name ~fi_name ~fn_name ~count ~pad ~bulk : def list =
  let build_maps lenv =
    let f = Lenfun.lookup lenv fn_name in
    let real = ref 0 in
    for t = 0 to count - 1 do
      real := !real + Shape.pad_to (f t) pad
    done;
    let total = Shape.pad_to !real bulk in
    let fo = Array.make (max total 1) 0 and fi = Array.make (max total 1) 0 in
    let pos = ref 0 in
    for t = 0 to count - 1 do
      let s = Shape.pad_to (f t) pad in
      for i = 0 to s - 1 do
        fo.(!pos) <- t;
        fi.(!pos) <- i;
        incr pos
      done
    done;
    (* bulk-padding region: virtual row [count] *)
    let base = !pos in
    while !pos < total do
      fo.(!pos) <- count;
      fi.(!pos) <- !pos - base;
      incr pos
    done;
    (fo, fi)
  in
  let work lenv =
    let f = Lenfun.lookup lenv fn_name in
    let total = ref 0 in
    for t = 0 to count - 1 do
      total := !total + Shape.pad_to (f t) pad
    done;
    2 * Shape.pad_to !total bulk
  in
  let maps_src which =
    Printf.sprintf
      "void build_%s(const int* %s, int total, int* out) {\n  int pos = 0;\n  for (int t = 0; t < %d; ++t) {\n    int s = %s;\n    for (int i = 0; i < s; ++i) { out[pos] = %s; ++pos; }\n  }\n  int base = pos;\n  for (; pos < total; ++pos) out[pos] = %s;  /* virtual padding row */\n}\n"
      which fn_name count
      (if pad <= 1 then Printf.sprintf "%s[t]" fn_name
       else Printf.sprintf "((%s[t] + %d) / %d) * %d" fn_name (pad - 1) pad pad)
      (if which = fo_name then "t" else "i")
      (if which = fo_name then Printf.sprintf "%d" count else "pos - base")
  in
  (* Incremental maintenance: per-row padded sizes are compared old-vs-new
     in O(count); the map prefix before the first changed row is bitwise
     identical (blitted), only the suffix is refilled.  On steps where no
     padded size changed — (pad-1) of every pad decode steps — the whole
     array is shared by reference, which is where the amortised O(changed
     rows) bound comes from. *)
  let update_map ~is_fo ~prev ~old_lenv lenv =
    match prev with
    | Scalar _ -> None
    | Table old -> (
        match
          (try Some (Lenfun.lookup old_lenv fn_name) with Not_found -> None)
        with
        | None -> None
        | Some g ->
            let f = Lenfun.lookup lenv fn_name in
            let t0 = ref count and prefix = ref 0 in
            let real_old = ref 0 and real_new = ref 0 in
            for t = 0 to count - 1 do
              let so = Shape.pad_to (g t) pad and sn = Shape.pad_to (f t) pad in
              if so <> sn && !t0 = count then begin
                t0 := t;
                prefix := !real_new
              end;
              real_old := !real_old + so;
              real_new := !real_new + sn
            done;
            let total_old = Shape.pad_to !real_old bulk in
            let total = Shape.pad_to !real_new bulk in
            if Array.length old <> max total_old 1 then None
            else if !t0 = count then Some (prev, count)
            else begin
              (* A row's segment is position-independent (fo entries are
                 the row index, fi entries are 0..s-1), so rows whose
                 padded size is unchanged blit from their OLD offset to
                 their new one; only rows whose padded size actually
                 changed — one in [pad] growth steps — are recomputed.
                 Work: the scan, one unit per blitted row (bulk copy),
                 and the changed rows' entries. *)
              let a = Array.make (max total 1) 0 in
              Array.blit old 0 a 0 !prefix;
              (* old offset of row t0: psum of old padded sizes before it *)
              let opos = ref 0 in
              for t = 0 to !t0 - 1 do
                opos := !opos + Shape.pad_to (g t) pad
              done;
              let pos = ref !prefix and wrk = ref (count + (count - !t0)) in
              for t = !t0 to count - 1 do
                let so = Shape.pad_to (g t) pad and sn = Shape.pad_to (f t) pad in
                if so = sn then Array.blit old !opos a !pos sn
                else begin
                  wrk := !wrk + sn;
                  for i = 0 to sn - 1 do
                    a.(!pos + i) <- (if is_fo then t else i)
                  done
                end;
                opos := !opos + so;
                pos := !pos + sn
              done;
              let base = !pos in
              wrk := !wrk + (total - base);
              while !pos < total do
                a.(!pos) <- (if is_fo then count else !pos - base);
                incr pos
              done;
              Some (Table a, !wrk)
            end)
  in
  [
    {
      name = fo_name;
      kind = Loop_fusion;
      c_src = Some (maps_src fo_name);
      compute = (fun lenv -> Table (fst (build_maps lenv)));
      work = (fun lenv -> work lenv / 2);
      update = Some (fun ~prev ~old_lenv lenv -> update_map ~is_fo:true ~prev ~old_lenv lenv);
    };
    {
      name = fi_name;
      kind = Loop_fusion;
      c_src = Some (maps_src fi_name);
      compute = (fun lenv -> Table (snd (build_maps lenv)));
      work = (fun lenv -> work lenv / 2);
      update = Some (fun ~prev ~old_lenv lenv -> update_map ~is_fo:false ~prev ~old_lenv lenv);
    };
  ]
