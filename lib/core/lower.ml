open Ir

(** Lowering: schedule → IR kernel (CoRa §5).

    Reconstructs index expressions of the original (root) dimensions from
    the transformed loop variables, materialises loop extents (including
    ragged extents as uninterpreted length functions), inserts bound guards
    where the transformed iteration space over-covers the true one, lowers
    tensor accesses to flat offsets, and collects every prelude definition
    the kernel needs. *)

exception Error of string

let err fmt = Fmt.kstr (fun s -> raise (Error s)) fmt

(** A compiled kernel: the lowered loop nest plus everything the runtime
    and machine model need to execute it. *)
type kernel = {
  kname : string;
  body : Stmt.t;
  aux : Prelude.def list;  (** prelude structures referenced by the kernel *)
  triples : Simplify.fusion_triple list;
  eff : float;  (** compiled-code efficiency factor for the machine model *)
  remap : Schedule.remap_policy;  (** thread-block issue order policy *)
  bound : Schedule.boundedness;
  out : Tensor.t;
  reads : Tensor.t list;  (** input tensors, for generic runners/serving *)
}

type links = {
  outer_child : (int, Schedule.axis) Hashtbl.t;
  inner_child : (int, Schedule.axis) Hashtbl.t;
  fused_child : (int, Schedule.axis * [ `A | `B ]) Hashtbl.t;
  leaf_ids : (int, int) Hashtbl.t;  (** aid -> position in leaf order *)
}

let build_links (leaves : Schedule.axis list) : links =
  let l =
    {
      outer_child = Hashtbl.create 8;
      inner_child = Hashtbl.create 8;
      fused_child = Hashtbl.create 8;
      leaf_ids = Hashtbl.create 8;
    }
  in
  List.iteri (fun i (a : Schedule.axis) -> Hashtbl.replace l.leaf_ids a.aid i) leaves;
  let rec walk (a : Schedule.axis) =
    match a.origin with
    | Root _ -> ()
    | Split_outer (p, _) ->
        Hashtbl.replace l.outer_child p.aid a;
        walk p
    | Split_inner (p, _) ->
        Hashtbl.replace l.inner_child p.aid a;
        walk p
    | Fused { fa; fb; _ } ->
        Hashtbl.replace l.fused_child fa.aid (a, `A);
        Hashtbl.replace l.fused_child fb.aid (a, `B);
        walk fa;
        walk fb
  in
  List.iter walk leaves;
  l

let is_leaf links (a : Schedule.axis) = Hashtbl.mem links.leaf_ids a.aid

(* ------------------------------------------------------------------ *)

let kernels_c = Obs.Metrics.counter "lower.kernels"
let guards_inserted_c = Obs.Metrics.counter "lower.guards_inserted"

let lower_impl ?(ranges : (int * Schedule.range_mode) list = []) ?(init = true) ?apply_epilogue
    ?(name_suffix = "") (s : Schedule.t) : kernel =
  (* When a reduction is operation-split, the epilogue (fused activation)
     must run only once, after the final partial kernel: main kernels pass
     [~apply_epilogue:false], the tail [~init:false ~apply_epilogue:true]. *)
  let apply_epilogue = match apply_epilogue with Some b -> b | None -> init in
  let op = s.op in
  Obs.Span.with_span
    ~attrs:[ ("kernel", Obs.Trace_sink.Str (op.Op.name ^ name_suffix)) ]
    "lower"
  @@ fun () ->
  Obs.Metrics.incr kernels_c;
  let links = build_links s.leaves in
  let mode_of aid =
    match List.assoc_opt aid ranges with Some m -> m | None -> Schedule.Full
  in
  let aux : Prelude.def list ref = ref [] in
  let add_aux (d : Prelude.def) =
    if not (List.exists (fun x -> x.Prelude.name = d.Prelude.name) !aux) then
      aux := !aux @ [ d ]
  in

  (* --- index value of any axis, reconstructed from the leaves --- *)
  let value_memo : (int, Expr.t) Hashtbl.t = Hashtbl.create 16 in
  let rec value (a : Schedule.axis) : Expr.t =
    match Hashtbl.find_opt value_memo a.aid with
    | Some e -> e
    | None ->
        let e =
          if is_leaf links a then Expr.var a.avar
          else
            match Hashtbl.find_opt links.outer_child a.aid with
            | Some o ->
                let i =
                  match Hashtbl.find_opt links.inner_child a.aid with
                  | Some i -> i
                  | None -> err "axis %s: split without inner child" (Var.name a.avar)
                in
                let factor =
                  match o.origin with
                  | Split_outer (_, f) -> f
                  | _ -> assert false
                in
                Expr.add (Expr.mul (value o) (Expr.int factor)) (value i)
            | None -> (
                match Hashtbl.find_opt links.fused_child a.aid with
                | Some (fz, side) -> (
                    match fz.origin with
                    | Fused { f_kind; _ } -> (
                        match (f_kind, side) with
                        | Schedule.Dense_fuse eb, `A -> Expr.floordiv (value fz) (Expr.int eb)
                        | Schedule.Dense_fuse eb, `B -> Expr.imod (value fz) (Expr.int eb)
                        | Schedule.Ragged_fuse r, `A -> Expr.ufun r.triple.Simplify.fo [ value fz ]
                        | Schedule.Ragged_fuse r, `B -> Expr.ufun r.triple.Simplify.fi [ value fz ])
                    | _ -> assert false)
                | None ->
                    err "axis %s was neither kept as a leaf nor transformed" (Var.name a.avar))
        in
        Hashtbl.replace value_memo a.aid e;
        e
  in

  (* --- true (unpadded) extents of root dimensions --- *)
  let shape_extent_expr (ext : Shape.t) : Expr.t =
    match ext with
    | Shape.Fixed n -> Expr.int n
    | Shape.Ragged { dep; fn } ->
        let pos = Tensor.dim_pos op.Op.out dep in
        Expr.ufun (Lenfun.name fn) [ value s.data_roots.(pos) ]
  in
  let true_data_extent i = shape_extent_expr op.Op.loop_extents.(i) in
  let true_red_extent i = shape_extent_expr op.Op.rvars.(i).Op.rextent in

  (* --- padded loop extent (and min) of any axis --- *)
  let rec padded_extent (a : Schedule.axis) : Expr.t =
    let base =
      match a.origin with
      | Root (Data i) -> true_data_extent i
      | Root (Reduction i) -> true_red_extent i
      | Split_outer (p, f) -> (
          let ep = padded_extent p in
          match mode_of p.aid with
          | Full -> Expr.floordiv (Expr.add ep (Expr.int (f - 1))) (Expr.int f)
          | Tiles_only -> Expr.floordiv ep (Expr.int f)
          | Tail_only -> Expr.one)
      | Split_inner (p, f) -> (
          match mode_of p.aid with
          | Full | Tiles_only -> Expr.int f
          | Tail_only -> Expr.imod (padded_extent p) (Expr.int f))
      | Fused { fa; f_kind; _ } -> (
          match f_kind with
          | Dense_fuse eb -> Expr.mul (padded_extent fa) (Expr.int eb)
          | Ragged_fuse r -> Expr.ufun r.total_name [])
    in
    Expr.pad_up base a.pad
  in
  let loop_min (a : Schedule.axis) : Expr.t =
    match a.origin with
    | Split_outer (p, f) when mode_of p.aid = Schedule.Tail_only ->
        Expr.floordiv (padded_extent p) (Expr.int f)
    | _ -> Expr.zero
  in

  (* --- constant extent, if statically known --- *)
  let rec const_extent (a : Schedule.axis) : int option =
    let base =
      match a.origin with
      | Root (Data i) -> (
          match op.Op.loop_extents.(i) with Shape.Fixed n -> Some n | _ -> None)
      | Root (Reduction i) -> (
          match op.Op.rvars.(i).Op.rextent with Shape.Fixed n -> Some n | _ -> None)
      | Split_outer (p, f) -> (
          match (const_extent p, mode_of p.aid) with
          | Some e, Full -> Some ((e + f - 1) / f)
          | Some e, Tiles_only -> Some (e / f)
          | _, Tail_only -> Some 1
          | None, _ -> None)
      | Split_inner (p, f) -> (
          match mode_of p.aid with
          | Full | Tiles_only -> Some f
          | Tail_only -> Option.map (fun e -> e mod f) (const_extent p))
      | Fused { fa; f_kind; _ } -> (
          match f_kind with
          | Dense_fuse eb -> Option.map (fun e -> e * eb) (const_extent fa)
          | Ragged_fuse _ -> None)
    in
    Option.map (fun e -> Shape.pad_to e a.pad) base
  in

  (* --- does the leaf decomposition of [a] possibly produce index values
         beyond its true extent? --- *)
  let rec exceeds (a : Schedule.axis) : bool =
    let pad_exceeds =
      a.pad > 1
      &&
      match a.origin with
      | Root (Data i) -> (
          match op.Op.loop_extents.(i) with
          | Shape.Fixed n -> n mod a.pad <> 0
          | Shape.Ragged _ -> true)
      | Root (Reduction i) -> (
          match op.Op.rvars.(i).Op.rextent with
          | Shape.Fixed n -> n mod a.pad <> 0
          | Shape.Ragged _ -> true)
      | _ -> true
    in
    if is_leaf links a then pad_exceeds
    else
      match Hashtbl.find_opt links.outer_child a.aid with
      | Some o -> (
          let i = Hashtbl.find links.inner_child a.aid in
          let factor = match o.origin with Split_outer (_, f) -> f | _ -> assert false in
          match mode_of a.aid with
          | Tiles_only | Tail_only -> pad_exceeds || exceeds o || exceeds i
          | Full ->
              let divisible =
                match const_extent a with Some e -> e mod factor = 0 | None -> false
              in
              pad_exceeds || (not divisible) || exceeds o || exceeds i)
      | None -> (
          match Hashtbl.find_opt links.fused_child a.aid with
          | Some (fz, side) -> (
              match fz.origin with
              | Fused { f_kind; _ } -> (
                  match (f_kind, side) with
                  | Schedule.Ragged_fuse _, `A -> fz.pad > 1
                  | Schedule.Ragged_fuse r, `B -> r.inner_pad > 1 || fz.pad > 1
                  | Schedule.Dense_fuse _, _ -> fz.pad > 1)
              | _ -> assert false)
          | None -> err "axis %s not consumed" (Var.name a.avar))
  in

  (* --- fusion aux structures (off/fo/fi/totals) for ragged fused axes --- *)
  let register_fusion_aux () =
    let rec per_axis (a : Schedule.axis) =
      (match a.origin with
      | Fused { f_kind = Ragged_fuse r; _ } ->
          let bulk = a.pad in
          add_aux (Prelude.psum_def ~name:r.off_name ~fn_name:r.fn_name ~count:r.count ~pad:r.inner_pad);
          add_aux
            {
              (Prelude.fused_total_def ~name:r.total_name ~fn_name:r.fn_name ~count:r.count
                 ~pad:r.inner_pad ~bulk)
              with
              kind = Prelude.Loop_fusion;
            };
          add_aux
            {
              (Prelude.fused_total_def ~name:r.real_total_name ~fn_name:r.fn_name
                 ~count:r.count ~pad:r.inner_pad ~bulk:1)
              with
              kind = Prelude.Loop_fusion;
            };
          List.iter add_aux
            (Prelude.fused_map_defs ~fo_name:r.triple.Simplify.fo ~fi_name:r.triple.Simplify.fi
               ~fn_name:r.fn_name ~count:r.count ~pad:r.inner_pad ~bulk)
      | _ -> ());
      match a.origin with
      | Root _ -> ()
      | Split_outer (p, _) | Split_inner (p, _) -> per_axis p
      | Fused { fa; fb; _ } ->
          per_axis fa;
          per_axis fb
    in
    List.iter per_axis s.leaves
  in
  Obs.Span.with_span "lower.vloop_fusion" (fun () ->
      register_fusion_aux ();
      Obs.Span.add_attr "aux_defs" (Obs.Trace_sink.Int (List.length !aux)));

  (* --- reconstruct root index expressions (bounds inference: every root
         index is rebuilt from the transformed loop variables) --- *)
  let data_values, red_values =
    Obs.Span.with_span "lower.bounds" (fun () ->
        (Array.map value s.data_roots, Array.map value s.red_roots))
  in

  (* --- body: substitute index vars, lower tensor accesses --- *)
  let substitution =
    let m = ref Var.Map.empty in
    Array.iteri (fun i v -> m := Var.Map.add v data_values.(i) !m) op.Op.dim_vars;
    Array.iteri (fun i (r : Op.rvar) -> m := Var.Map.add r.rv red_values.(i) !m) op.Op.rvars;
    !m
  in
  let lower_accesses e =
    Expr.map_bottom_up
      (function
        | Expr.Access { tensor; indices } -> (
            match Op.tensor_named op tensor with
            | Some t ->
                let load, defs = Storage.load t indices in
                List.iter add_aux defs;
                load
            | None -> err "op %s reads unknown tensor %s" op.Op.name tensor)
        | e -> e)
      e
  in
  let body_expr, init_expr, out_offset =
    Obs.Span.with_span "lower.storage" (fun () ->
        let body_expr = lower_accesses (Expr.subst substitution op.Op.body) in
        let init_expr = lower_accesses (Expr.subst substitution op.Op.init) in
        let out_offset, out_defs = Storage.lower op.Op.out (Array.to_list data_values) in
        List.iter add_aux out_defs;
        Obs.Span.add_attr "aux_defs" (Obs.Trace_sink.Int (List.length !aux));
        (body_expr, init_expr, out_offset))
  in

  (* --- guards --- *)
  let leaf_arr = Array.of_list s.leaves in
  let n_leaves = Array.length leaf_arr in
  let leaf_index_of_var =
    let tbl = Hashtbl.create 8 in
    Array.iteri (fun i (a : Schedule.axis) -> Hashtbl.replace tbl a.avar.Var.id i) leaf_arr;
    tbl
  in
  let innermost_leaf (e : Expr.t) =
    Var.Set.fold
      (fun v acc ->
        match Hashtbl.find_opt leaf_index_of_var v.Var.id with
        | Some i -> max acc i
        | None -> acc)
      (Expr.free_vars e) (-1)
  in
  (* Coverage multiple: the leaf decomposition of an axis visits at most
     pad_up(true_extent, L) index values, where L folds together the axis
     paddings and the factors of (potentially non-dividing) Full splits. *)
  let gcd a b =
    let rec go a b = if b = 0 then a else go b (a mod b) in
    go (max a 1) (max b 1)
  in
  let lcm a b = a / gcd a b * b in
  let rec coverage_multiple (a : Schedule.axis) : int =
    let own = max 1 a.Schedule.pad in
    if is_leaf links a then own
    else
      match Hashtbl.find_opt links.outer_child a.aid with
      | Some o ->
          let i = Hashtbl.find links.inner_child a.aid in
          let factor = match o.origin with Split_outer (_, f) -> f | _ -> assert false in
          (* each outer value expands to a tile of pad_up(factor, C(inner))
             visited indices, and the outer range itself rounds up in units
             of C(outer): ceil(ceil(E/f)/c)*c*f = pad_up(E, c*f). *)
          let tile = Shape.pad_to factor (coverage_multiple i) in
          lcm own (coverage_multiple o * tile)
      | None -> own
  in
  (* Elision is only sound if the (padded) storage of the output dimension
     is guaranteed to contain every visited index: the storage padding must
     be a multiple of the coverage multiple (§4.1's storage >= loop padding
     rule, extended to non-dividing splits).  Fused axes are exempt: their
     accesses collapse to the fused index, bounded by the bulk-padded
     buffer. *)
  let rec consumed_by_fusion (a : Schedule.axis) =
    if is_leaf links a then false
    else
      match Hashtbl.find_opt links.fused_child a.aid with
      | Some _ -> true
      | None -> (
          match
            (Hashtbl.find_opt links.outer_child a.aid, Hashtbl.find_opt links.inner_child a.aid)
          with
          | Some o, Some i -> consumed_by_fusion o || consumed_by_fusion i
          | _ -> false)
  in
  let elide_safe ~is_red i (root : Schedule.axis) =
    if is_red then true (* reduction elision is the user's explicit assertion *)
    else if consumed_by_fusion root then true
    else
      let storage_pad = op.Op.out.Tensor.pads.(i) in
      storage_pad mod coverage_multiple root = 0
  in
  let mk_guards roots values true_extent ~is_red =
    Array.to_list
      (Array.mapi
         (fun i (root : Schedule.axis) ->
           let elide =
             (root.Schedule.elide_guard || (s.guard_mode = Schedule.Elide && not is_red))
             && elide_safe ~is_red i root
           in
           if exceeds root && not elide then Some (Expr.lt values.(i) (true_extent i))
           else None)
         roots)
    |> List.filter_map Fun.id
  in
  let guards =
    Obs.Span.with_span "lower.guards" (fun () ->
        let data_guards = mk_guards s.data_roots data_values true_data_extent ~is_red:false in
        let red_guards = mk_guards s.red_roots red_values true_red_extent ~is_red:true in
        let gs = List.map (fun g -> (innermost_leaf g, g)) (data_guards @ red_guards) in
        Obs.Span.add_attr "guards_inserted" (Obs.Trace_sink.Int (List.length gs));
        Obs.Metrics.add guards_inserted_c (List.length gs);
        gs)
  in

  (* --- validate loop order: a vloop extent may only reference outer leaf
         variables (§4.1's reordering restriction) --- *)
  Array.iteri
    (fun k (a : Schedule.axis) ->
      let fv = Expr.free_vars (padded_extent a) in
      Var.Set.iter
        (fun v ->
          match Hashtbl.find_opt leaf_index_of_var v.Var.id with
          | Some j when j >= k ->
              err "op %s: vloop %s is ordered outside the loop (%s) its bound depends on"
                op.Op.name (Var.name a.avar) (Var.name v)
          | _ -> ())
        fv)
    leaf_arr;

  (* --- reduction region: must be a contiguous suffix of the leaf order --- *)
  let red_start =
    let is_red k = Schedule.is_reduction_axis leaf_arr.(k) in
    let rec first_red k = if k >= n_leaves then n_leaves else if is_red k then k else first_red (k + 1) in
    let rs = first_red 0 in
    for k = rs to n_leaves - 1 do
      if not (is_red k) then
        err "op %s: reduction loops must form a contiguous innermost suffix" op.Op.name
    done;
    rs
  in

  (* --- assemble the loop nest inside out (materialising the padded
         extents bounds inference derived) --- *)
  let full_nest =
    Obs.Span.with_span "lower.assemble" @@ fun () ->
    let wrap_loop k body =
    let a = leaf_arr.(k) in
    Stmt.For { var = a.avar; min = loop_min a; extent = padded_extent a; kind = a.kind; body }
  in
  let attach_guards k body =
    let gs = List.filter_map (fun (i, g) -> if i = k then Some g else None) guards in
    match gs with
    | [] -> body
    | gs -> Stmt.If (List.fold_left Expr.and_ (List.hd gs) (List.tl gs), body, None)
  in
  let core =
    match op.Op.reduce with
    | None -> Stmt.Store { buf = op.Op.out.Tensor.buf; index = out_offset; value = body_expr }
    | Some rop ->
        Stmt.Reduce_store { buf = op.Op.out.Tensor.buf; index = out_offset; value = body_expr; op = rop }
  in
  (* reduction loops (suffix) *)
  let red_nest =
    let rec go k body =
      if k < red_start then body else go (k - 1) (wrap_loop k (attach_guards k body))
    in
    go (n_leaves - 1) core
  in
  let with_init =
    let epilogue_stmt =
      match (op.Op.reduce, op.Op.epilogue) with
      | Some _, Some post when apply_epilogue ->
          [
            Stmt.Store
              {
                buf = op.Op.out.Tensor.buf;
                index = out_offset;
                value = post (Expr.load op.Op.out.Tensor.buf out_offset);
              };
          ]
      | _ -> []
    in
    match op.Op.reduce with
    | Some _ when init ->
        Stmt.seq
          ((Stmt.Store { buf = op.Op.out.Tensor.buf; index = out_offset; value = init_expr }
           :: [ red_nest ])
          @ epilogue_stmt)
    | Some _ -> Stmt.seq (red_nest :: epilogue_stmt)
    | None -> red_nest
  in
    let full_nest =
      let rec go k body =
        if k < 0 then attach_guards (-1) body
        else go (k - 1) (wrap_loop k (attach_guards k body))
      in
      go (red_start - 1) with_init
    in
    Obs.Span.add_attr "nodes" (Obs.Trace_sink.Int (Stmt.size full_nest));
    full_nest
  in

  (* --- hoisting and simplification --- *)
  let triples = Schedule.fusion_triples s in
  let ctx = List.fold_left Simplify.with_fusion Simplify.empty_ctx triples in
  let stmt =
    Obs.Span.with_span "lower.simplify" (fun () ->
        Obs.Span.add_attr "nodes_before" (Obs.Trace_sink.Int (Stmt.size full_nest));
        let st = Simplify.simplify_stmt ~ctx full_nest in
        Obs.Span.add_attr "nodes_after" (Obs.Trace_sink.Int (Stmt.size st));
        st)
  in
  let stmt =
    if s.hoist then
      Obs.Span.with_span "lower.hoist" (fun () ->
          Obs.Span.add_attr "nodes_before" (Obs.Trace_sink.Int (Stmt.size stmt));
          let st = Hoist.hoist stmt in
          Obs.Span.add_attr "nodes_after" (Obs.Trace_sink.Int (Stmt.size st));
          st)
    else stmt
  in
  let remap =
    List.fold_left
      (fun acc (a : Schedule.axis) ->
        match a.remap with Schedule.No_remap -> acc | p -> p)
      Schedule.No_remap s.leaves
  in
  Obs.Span.add_attr "nodes_final" (Obs.Trace_sink.Int (Stmt.size stmt));
  Obs.Span.add_attr "aux_defs" (Obs.Trace_sink.Int (List.length !aux));
  {
    kname = op.Op.name ^ name_suffix;
    body = stmt;
    aux = !aux;
    triples;
    eff = s.eff;
    remap;
    bound = s.Schedule.bound;
    out = op.Op.out;
    reads = op.Op.reads;
  }

(* ------------------------------------------------------------------ *)
(* Compile cache: structural memoization of lowering.

   When a memo scope is open (see [with_memo]), every [lower] call is
   keyed by {!Sig.lowering_key} — the canonical form of the schedule plus
   the lowering options — so a pipeline re-submitted by a later request
   (even one rebuilt from scratch, with fresh variables and dimensions)
   is lowered exactly once per distinct (operator, schedule) pair.  Keys
   compare on the full canonical string, never on a hash, so a collision
   can never return the wrong kernel.  Off outside a scope: builds
   outside a serving loop pay nothing, not even the key construction.

   The scope lives in domain-local storage, not a process global: two
   requests on different worker domains each see their own policy and
   their own hit/miss tally, so a cache-bypassing request can run next
   to a caching one without either corrupting the other — the global
   [set_memo] toggle this replaces was save/restored around each request
   and silently misrestored as soon as two requests overlapped.  The
   table itself is shared, mutex-protected and bounded
   ([compile_cache.evicted] counts LRU evictions). *)

let memo_table : (Sig.t, kernel) Cache.t =
  Cache.create ~name:"compile_cache" ~capacity:512 ()

type memo_stats = { mutable hits : int; mutable misses : int }
type memo_ctx = { use_cache : bool; stats : memo_stats }

let memo_ctx_key : memo_ctx option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let with_memo ~cache f =
  let slot = Domain.DLS.get memo_ctx_key in
  let saved = !slot in
  let stats = { hits = 0; misses = 0 } in
  slot := Some { use_cache = cache; stats };
  let v = Fun.protect ~finally:(fun () -> slot := saved) f in
  (v, stats)

let clear_memo () = Cache.clear memo_table
let memo_size () = Cache.size memo_table
let set_memo_capacity n = Cache.set_capacity memo_table n
let memo_capacity () = Cache.capacity memo_table

let memo_hit_c = Obs.Metrics.counter "compile_cache.hit"
let memo_miss_c = Obs.Metrics.counter "compile_cache.miss"

let lower ?ranges ?init ?apply_epilogue ?name_suffix (s : Schedule.t) : kernel =
  match !(Domain.DLS.get memo_ctx_key) with
  | Some { use_cache = true; stats } -> (
      let key = Sig.lowering_key ?ranges ?init ?apply_epilogue ?name_suffix s in
      match Cache.find memo_table key with
      | Some k ->
          Obs.Metrics.incr memo_hit_c;
          stats.hits <- stats.hits + 1;
          k
      | None ->
          Obs.Metrics.incr memo_miss_c;
          stats.misses <- stats.misses + 1;
          let k = lower_impl ?ranges ?init ?apply_epilogue ?name_suffix s in
          Cache.add memo_table key k;
          k)
  | Some { use_cache = false; _ } | None ->
      lower_impl ?ranges ?init ?apply_epilogue ?name_suffix s
