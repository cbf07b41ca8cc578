(* IR optimization pipeline.  See optimize.mli for the contract; the load
   hoisting here is the paper's §D.7 generalized from auxiliary-structure
   reads to all loop-invariant ragged-offset arithmetic. *)

type level = O0 | O3

let level_of_int = function
  | 0 -> O0
  | 3 -> O3
  | n -> invalid_arg (Printf.sprintf "Optimize.level_of_int: %d (levels are 0 and 3)" n)

let int_of_level = function O0 -> 0 | O3 -> 3
let level_name = function O0 -> "O0" | O3 -> "O3"

type report = { hoisted : int }

let hoist_var_name = "hv"

(* ------------------------------------------------------------------ *)
(* Purity / typing.  An expression is hoistable only when evaluating it
   early can neither fault nor perturb the float stream: pure integer
   arithmetic, ufun (prelude-table) reads, comparisons of the same — no
   loads, no intrinsics, no float ops, and division only by a nonzero
   literal.  [intvars] is the set of variables known to hold ints at this
   point (loop variables and int-valued lets). *)

let rec int_pure intvars (e : Expr.t) =
  match e with
  | Expr.Int _ -> true
  | Expr.Var v -> Var.Set.mem v intvars
  | Expr.Binop ((Expr.Add | Expr.Sub | Expr.Mul | Expr.Min | Expr.Max), a, b) ->
      int_pure intvars a && int_pure intvars b
  | Expr.Binop ((Expr.FloorDiv | Expr.Mod), a, Expr.Int n) when n <> 0 -> int_pure intvars a
  | Expr.Select (c, a, b) -> bool_pure intvars c && int_pure intvars a && int_pure intvars b
  | Expr.Ufun (_, args) -> List.for_all (int_pure intvars) args
  | _ -> false

and bool_pure intvars (e : Expr.t) =
  match e with
  | Expr.Bool _ -> true
  | Expr.Cmp (_, a, b) -> int_pure intvars a && int_pure intvars b
  | Expr.And (a, b) | Expr.Or (a, b) -> bool_pure intvars a && bool_pure intvars b
  | Expr.Not a -> bool_pure intvars a
  | _ -> false

let node_count e = Expr.fold (fun n _ -> n + 1) 0 e
let contains_ufun e = Expr.fold (fun b n -> b || match n with Expr.Ufun _ -> true | _ -> false) false e

(* Worth a preheader slot: a prelude-table read, or a big enough arithmetic
   tree that re-evaluating it per iteration actually costs something. *)
let worth e = contains_ufun e || node_count e >= 4

(* ------------------------------------------------------------------ *)
(* Candidate collection: maximal hoistable subexpressions of a subtree
   whose free variables are all bound at the prospective preheader. *)

let collect ~bound ~intvars (stmt : Stmt.t) : Expr.t list =
  let acc = ref [] in
  let add e = if not (List.mem e !acc) then acc := e :: !acc in
  let hoistable e =
    int_pure intvars e && worth e && Var.Set.subset (Expr.free_vars e) bound
  in
  let rec scan e =
    if hoistable e then add e
    else
      match (e : Expr.t) with
      | Int _ | Float _ | Bool _ | Var _ -> ()
      | Binop (_, a, b) | Cmp (_, a, b) | And (a, b) | Or (a, b) ->
          scan a;
          scan b
      | Not a -> scan a
      | Select (c, a, b) ->
          scan c;
          scan a;
          scan b
      | Load { index; _ } -> scan index
      | Ufun (_, args) | Call (_, args) -> List.iter scan args
      | Access { indices; _ } -> List.iter scan indices
      | Let (_, v, b) ->
          scan v;
          scan b
  in
  Stmt.fold_exprs (fun () e -> scan e) () stmt;
  List.rev !acc

(* Replace every occurrence of [target] (structural equality; sound because
   hoistable expressions contain no floats and variables are globally
   unique) with [Var hv], whole-match first so nothing inside a replaced
   occurrence is rewritten twice. *)
let replace_expr target hv e0 =
  let rec go e =
    if e = target then Expr.Var hv
    else
      match (e : Expr.t) with
      | Int _ | Float _ | Bool _ | Var _ -> e
      | Binop (op, a, b) -> Binop (op, go a, go b)
      | Cmp (op, a, b) -> Cmp (op, go a, go b)
      | And (a, b) -> And (go a, go b)
      | Or (a, b) -> Or (go a, go b)
      | Not a -> Not (go a)
      | Select (c, a, b) -> Select (go c, go a, go b)
      | Load { buf; index } -> Load { buf; index = go index }
      | Ufun (n, args) -> Ufun (n, List.map go args)
      | Call (n, args) -> Call (n, List.map go args)
      | Access { tensor; indices } -> Access { tensor; indices = List.map go indices }
      | Let (v, value, body) -> Let (v, go value, go body)
  in
  go e0

let occurs_expr target e =
  Expr.fold (fun b n -> b || n = target) false e

let occurs_stmt target stmt =
  Stmt.fold_exprs (fun b e -> b || occurs_expr target e) false stmt

let replace_stmt target hv stmt = Stmt.map_exprs (replace_expr target hv) stmt

(* ------------------------------------------------------------------ *)
(* Loop-invariant code motion.  Processed outermost-first: each [For]
   hoists every candidate of its whole body subtree that is evaluable at
   its preheader (free vars bound outside the loop), then recursion
   inward hoists what remains (expressions depending on this loop's
   variable) to deeper preheaders.  Candidates are substituted largest
   first so a maximal tree is bound whole, never split. *)

let licm (stmt : Stmt.t) : Stmt.t * report =
  let hoisted = ref 0 in
  let rec go ~bound ~intvars (s : Stmt.t) : Stmt.t =
    match s with
    | Stmt.For r ->
        let cands =
          collect ~bound ~intvars r.body
          |> List.sort (fun a b -> Int.compare (node_count b) (node_count a))
        in
        let body, bindings =
          List.fold_left
            (fun (body, binds) e ->
              (* earlier (larger) substitutions may have consumed every
                 occurrence of a smaller candidate *)
              if occurs_stmt e body then
                let hv = Var.fresh hoist_var_name in
                (replace_stmt e hv body, (hv, e) :: binds)
              else (body, binds))
            (r.body, []) cands
        in
        hoisted := !hoisted + List.length bindings;
        let bound = List.fold_left (fun s (v, _) -> Var.Set.add v s) bound bindings in
        let intvars = List.fold_left (fun s (v, _) -> Var.Set.add v s) intvars bindings in
        let body =
          go ~bound:(Var.Set.add r.var bound) ~intvars:(Var.Set.add r.var intvars) body
        in
        List.fold_left
          (fun acc (v, e) -> Stmt.Let_stmt (v, e, acc))
          (Stmt.For { r with body })
          bindings
    | Stmt.Let_stmt (v, e, body) ->
        let intvars = if int_pure intvars e then Var.Set.add v intvars else intvars in
        Stmt.Let_stmt (v, e, go ~bound:(Var.Set.add v bound) ~intvars body)
    | Stmt.If (c, a, b) ->
        Stmt.If (c, go ~bound ~intvars a, Option.map (go ~bound ~intvars) b)
    | Stmt.Seq l -> Stmt.Seq (List.map (go ~bound ~intvars) l)
    | Stmt.Alloc r ->
        Stmt.Alloc { r with body = go ~bound:(Var.Set.add r.buf bound) ~intvars r.body }
    | Stmt.Store _ | Stmt.Reduce_store _ | Stmt.Eval _ | Stmt.Nop -> s
  in
  let s = go ~bound:Var.Set.empty ~intvars:Var.Set.empty stmt in
  (s, { hoisted = !hoisted })

(* ------------------------------------------------------------------ *)
(* Division-identity elimination (O3): inside a flattened sum,
   [(e fdiv c) * c + (e mod c)] is exactly [e] — the IR's floored
   div/mod form a division-algorithm pair (a = q*b + r for any literal
   c <> 0), so the rewrite is value-exact for all integers.  Lowered
   gather indices through padded layouts produce these pairs
   ([(k/8)*8 + k%8] when the gather is the identity at this tile size);
   eliminating them is what exposes an affine stride to
   [classify_stride] / [classify_nest], so it runs as the first [O3]
   pass.  Dropping the pair evaluates [e] once where the original
   evaluated it twice — same fault behaviour (it is still evaluated),
   counter divergence covered by the documented O3 rule. *)
let divmod_elim (stmt : Stmt.t) : Stmt.t * report =
  let eliminated = ref 0 in
  let rec terms (e : Expr.t) =
    match e with Expr.Binop (Expr.Add, a, b) -> terms a @ terms b | e -> [ e ]
  in
  let matches_mul de c (t : Expr.t) =
    match t with
    | Expr.Binop (Expr.Mul, Expr.Binop (Expr.FloorDiv, de', Expr.Int c'), Expr.Int c'')
    | Expr.Binop (Expr.Mul, Expr.Int c'', Expr.Binop (Expr.FloorDiv, de', Expr.Int c')) ->
        c' = c && c'' = c && de' = de
    | _ -> false
  in
  (* find one [mod] term with a matching [div*c] term: replace the first
     such mul term by [de], drop the mod term, keep every other term in
     place (integer addition is associative and commutative, and these
     terms are pure integer arithmetic over already-evaluated values) *)
  let rec pair_one pre = function
    | [] -> None
    | (Expr.Binop (Expr.Mod, de, Expr.Int c) as t) :: rest when c <> 0 ->
        let replaced = ref false in
        let sub l =
          List.map
            (fun t' ->
              if (not !replaced) && matches_mul de c t' then begin
                replaced := true;
                de
              end
              else t')
            l
        in
        let pre' = sub pre in
        let rest' = if !replaced then rest else sub rest in
        if !replaced then Some (List.rev_append (List.rev pre') rest')
        else pair_one (pre @ [ t ]) rest
    | t :: rest -> pair_one (pre @ [ t ]) rest
  in
  let rewrite_node (e : Expr.t) =
    match e with
    | Expr.Binop (Expr.Add, _, _) -> (
        let here = ref 0 in
        let rec fix ts =
          match pair_one [] ts with
          | Some ts' ->
              incr here;
              fix ts'
          | None -> ts
        in
        let ts = fix (terms e) in
        if !here = 0 then e
        else begin
          eliminated := !eliminated + !here;
          match ts with
          | [] -> Expr.zero
          | t :: rest -> List.fold_left (fun acc x -> Expr.Binop (Expr.Add, acc, x)) t rest
        end)
    | e -> e
  in
  let s = Stmt.map_exprs (Expr.map_bottom_up rewrite_node) stmt in
  Obs.Metrics.add (Obs.Metrics.counter "optimize.divmod_eliminated") !eliminated;
  (s, { hoisted = 0 })

(* ------------------------------------------------------------------ *)
(* Index-set splitting (O3): the paper's operation splitting applied to a
   condition inside a loop.  A loop whose whole body is
   [d[..] = (v cmp e) ? x : y], with [v] the loop variable and [e]
   v-invariant, runs [x] on one contiguous part of its range and [y] on
   the rest; splitting the range at the point where the condition flips
   leaves two select-free loops, which the engine's copy/scale
   microkernels can take.  Iterations run in the original order over the
   original range, and [Select] never evaluates its untaken branch, so
   the outputs are bitwise the unsplit loop's.  [e] is evaluated once at
   the split point, speculatively when the range is empty — the same
   trade LICM makes, so it must be integer-pure under the in-scope int
   variables. *)

(* [v cmp e] as the cut point of the range and whether the select's true
   branch runs below it ([v < e] holds exactly on [v < cut]). *)
let cut_of var (c : Expr.t) =
  let norm =
    match c with
    | Expr.Cmp (op, Expr.Var u, e) when Var.equal u var -> Some (op, e)
    | Expr.Cmp (op, e, Expr.Var u) when Var.equal u var ->
        let flip : Expr.cmpop -> Expr.cmpop = function
          | Lt -> Gt
          | Le -> Ge
          | Gt -> Lt
          | Ge -> Le
          | op -> op
        in
        Some (flip op, e)
    | _ -> None
  in
  match norm with
  | Some (Expr.Lt, e) -> Some (e, true)
  | Some (Expr.Le, e) -> Some (Expr.add e Expr.one, true)
  | Some (Expr.Gt, e) -> Some (Expr.add e Expr.one, false)
  | Some (Expr.Ge, e) -> Some (e, false)
  | _ -> None

let split_c = Obs.Metrics.counter "optimize.select_splits"

let select_split (stmt : Stmt.t) : Stmt.t * report =
  let splits = ref 0 in
  let rec go intvars (s : Stmt.t) : Stmt.t =
    match s with
    | Stmt.For ({ var; body = Stmt.Store { buf; index; value = Expr.Select (c, x, y) }; _ } as r)
      -> (
        match cut_of var c with
        | Some (e, x_first) when (not (Expr.uses_var var e)) && int_pure intvars e ->
            incr splits;
            let lo = Var.fresh "lo" and hi = Var.fresh "hi" and cut = Var.fresh "cut" in
            let intvars = List.fold_right Var.Set.add [ lo; hi; cut ] intvars in
            (* the second part binds a fresh copy of the loop variable,
               so the two loops never share a binder *)
            let part v from upto value =
              let body =
                Stmt.subst (Var.Map.singleton var (Expr.Var v)) (Stmt.Store { buf; index; value })
              in
              go intvars
                (Stmt.For
                   { r with var = v; min = Expr.Var from;
                     extent = Expr.sub (Expr.Var upto) (Expr.Var from); body })
            in
            let first, second = if x_first then (x, y) else (y, x) in
            Stmt.Let_stmt
              ( lo,
                r.min,
                Stmt.Let_stmt
                  ( hi,
                    Expr.add (Expr.Var lo) r.extent,
                    Stmt.Let_stmt
                      ( cut,
                        Expr.max_ (Expr.Var lo) (Expr.min_ e (Expr.Var hi)),
                        Stmt.Seq
                          [
                            part var lo cut first;
                            part (Var.fresh (Var.name var)) cut hi second;
                          ] ) ) )
        | _ -> Stmt.For { r with body = go (Var.Set.add var intvars) r.body })
    | Stmt.For r -> Stmt.For { r with body = go (Var.Set.add r.var intvars) r.body }
    | Stmt.Let_stmt (v, e, body) ->
        let intvars = if int_pure intvars e then Var.Set.add v intvars else intvars in
        Stmt.Let_stmt (v, e, go intvars body)
    | Stmt.If (c, a, b) -> Stmt.If (c, go intvars a, Option.map (go intvars) b)
    | Stmt.Seq l -> Stmt.Seq (List.map (go intvars) l)
    | Stmt.Alloc r -> Stmt.Alloc { r with body = go intvars r.body }
    | Stmt.Store _ | Stmt.Reduce_store _ | Stmt.Eval _ | Stmt.Nop -> s
  in
  let s = go Var.Set.empty stmt in
  Obs.Metrics.add split_c !splits;
  (s, { hoisted = 0 })

(* ------------------------------------------------------------------ *)
(* Pass framework: each pass runs under an [optimize.<name>] span and
   accounts what it did in the metrics registry. *)

type pass = { pname : string; prun : Stmt.t -> Stmt.t * report }

let licm_pass = { pname = "licm"; prun = licm }
let divmod_pass = { pname = "divmod"; prun = divmod_elim }
let select_split_pass = { pname = "select_split"; prun = select_split }

let passes = function O0 -> [] | O3 -> [ divmod_pass; licm_pass; select_split_pass ]

let run ~level (stmt : Stmt.t) : Stmt.t * report =
  List.fold_left
    (fun (s, rep) p ->
      let s', r =
        Obs.Span.with_span
          ~attrs:[ ("level", Obs.Trace_sink.Str (level_name level)) ]
          ("optimize." ^ p.pname)
          (fun () -> p.prun s)
      in
      Obs.Metrics.add (Obs.Metrics.counter "optimize.hoisted") r.hoisted;
      (s', { hoisted = rep.hoisted + r.hoisted }))
    (stmt, { hoisted = 0 })
    (passes level)

(* ------------------------------------------------------------------ *)
(* Affine decomposition: [e = base + var * stride] with [base]/[stride]
   free of [var].  Exact — only reassociates integer [+]/[-]/[*]. *)

type affine = { base : Expr.t; stride : Expr.t }

let rec affine_in v (e : Expr.t) : affine option =
  if not (Expr.uses_var v e) then Some { base = e; stride = Expr.zero }
  else
    match e with
    | Expr.Var u when Var.equal u v -> Some { base = Expr.zero; stride = Expr.one }
    | Expr.Binop (Expr.Add, a, b) -> (
        match (affine_in v a, affine_in v b) with
        | Some x, Some y ->
            Some { base = Expr.add x.base y.base; stride = Expr.add x.stride y.stride }
        | _ -> None)
    | Expr.Binop (Expr.Sub, a, b) -> (
        match (affine_in v a, affine_in v b) with
        | Some x, Some y ->
            Some { base = Expr.sub x.base y.base; stride = Expr.sub x.stride y.stride }
        | _ -> None)
    | Expr.Binop (Expr.Mul, a, b) when not (Expr.uses_var v a) -> (
        match affine_in v b with
        | Some y -> Some { base = Expr.mul a y.base; stride = Expr.mul a y.stride }
        | None -> None)
    | Expr.Binop (Expr.Mul, a, b) when not (Expr.uses_var v b) -> (
        match affine_in v a with
        | Some x -> Some { base = Expr.mul x.base b; stride = Expr.mul x.stride b }
        | None -> None)
    | _ -> None

(* ------------------------------------------------------------------ *)
(* Compile-time stride classification (O3 variant selection).
   Conservative integer constant folding: anything that does not fold to
   a literal is a dynamic stride, which the engine must evaluate at
   block-entry time and drive with a strided kernel. *)

let rec const_of (e : Expr.t) : int option =
  match e with
  | Expr.Int n -> Some n
  | Expr.Binop (op, a, b) -> (
      match (const_of a, const_of b) with
      | Some x, Some y -> (
          match op with
          | Expr.Add -> Some (x + y)
          | Expr.Sub -> Some (x - y)
          | Expr.Mul -> Some (x * y)
          | Expr.Min -> Some (min x y)
          | Expr.Max -> Some (max x y)
          | Expr.FloorDiv | Expr.Mod | Expr.Div -> None)
      | _ -> None)
  | _ -> None

type stride_class = S_unit | S_const of int | S_dyn

let classify_stride (ax : affine) : stride_class =
  match const_of ax.stride with Some 1 -> S_unit | Some n -> S_const n | None -> S_dyn

(* ------------------------------------------------------------------ *)
(* Innermost-loop classification *)

type inner =
  | Dot of {
      dst : Var.t;
      dst_idx : Expr.t;
      op : Stmt.reduce_op;
      a : Var.t;
      a_ix : affine;
      b : Var.t;
      b_ix : affine;
    }
  | Reduce1 of { dst : Var.t; dst_idx : Expr.t; op : Stmt.reduce_op; src : Var.t; src_ix : affine }
  | Copy of { dst : Var.t; dst_ix : affine; src : Var.t; src_ix : affine }
  | Scale of { dst : Var.t; dst_ix : affine; src : Var.t; src_ix : affine; factor : float }

let classify_inner ~var (body : Stmt.t) : inner option =
  match body with
  | Stmt.Reduce_store { buf; index; value; op } when not (Expr.uses_var var index) -> (
      match value with
      | Expr.Binop (Expr.Mul, Expr.Load { buf = a; index = ia }, Expr.Load { buf = b; index = ib })
        -> (
          match (affine_in var ia, affine_in var ib) with
          | Some a_ix, Some b_ix -> Some (Dot { dst = buf; dst_idx = index; op; a; a_ix; b; b_ix })
          | _ -> None)
      | Expr.Load { buf = src; index = is } -> (
          match affine_in var is with
          | Some src_ix -> Some (Reduce1 { dst = buf; dst_idx = index; op; src; src_ix })
          | None -> None)
      | _ -> None)
  | Stmt.Store { buf; index; value } -> (
      match affine_in var index with
      | None -> None
      | Some dst_ix -> (
          match value with
          | Expr.Load { buf = src; index = is } -> (
              match affine_in var is with
              | Some src_ix -> Some (Copy { dst = buf; dst_ix; src; src_ix })
              | None -> None)
          (* literal factor only, and never NaN: [x *. c] must be bitwise
             [c *. x] for the emitted loop to be order-insensitive *)
          | Expr.Binop (Expr.Mul, Expr.Load { buf = src; index = is }, Expr.Float c)
          | Expr.Binop (Expr.Mul, Expr.Float c, Expr.Load { buf = src; index = is })
            when not (Float.is_nan c) -> (
              match affine_in var is with
              | Some src_ix -> Some (Scale { dst = buf; dst_ix; src; src_ix; factor = c })
              | None -> None)
          | _ -> None))
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Two-deep nest classification (O3): a loop over [var] whose body
   is a serial dot loop sweeping a distinct destination element per
   [var] iteration — the register-tilable gemm/attention shape.  One
   multiplicand's whole address is [var]-invariant (the shared operand,
   loadable once per reduction step for the whole tile); the other's
   reduction stride is [var]-invariant while its base advances affinely
   with [var].

   Lowered kernels do not present the dot loop bare.  The tile-var body
   is, in full generality,

     [If (guard) { dst[i] = init; let hv = ...;
                   for k { dst[i] += mask ? a[..] * b[..] : 0. };
                   dst[i] = epi }]

   — a raggedness guard, the accumulator's init store (a bias row, or a
   literal zero), LICM preheader bindings, a Select mask inside the
   reduction (raggedness masking without a branchy loop bound), and an
   optional epilogue store rewriting the finished cell (a scale, an
   activation).  The classifier peels all of these: pure-integer
   [Let_stmt] bindings are inlined so affine decomposition in [var] sees
   through preheader variables; the guard and the [var]-wise mask
   conjuncts are kept for per-iteration evaluation by the engine; a mask
   conjunct of the shape [kvar < bound] becomes an effective reduction
   length; init and epilogue are kept only when they address exactly the
   dot's own cell.  Sum reductions only — the tile's accumulator chains
   must be independent. *)

type nest =
  | Tiled_dot of {
      dst : Var.t;
      dst_ix : affine;  (** destination index, affine in the tile var *)
      guard : Expr.t option;
          (** raggedness guard, pure, evaluated per tile-var value *)
      init : Expr.t option;
          (** init-store value for the dot's cell, evaluated per tile-var
              value; [None] means accumulate into the existing cell *)
      init_bufs : Var.t list;
          (** buffers the init value loads from (beyond the cell itself) —
              the engine falls back if any aliases the destination *)
      epi : Stmt.t option;
          (** epilogue store rewriting the finished cell, run per
              tile-var value after its chain completes *)
      epi_bufs : Var.t list;  (** like [init_bufs], for the epilogue *)
      vmask : Expr.t option;
          (** inner-var-invariant mask conjuncts, pure, evaluated per
              tile-var value; false means the chain only accumulates
              zeros *)
      kbound : Expr.t option;
          (** mask conjunct [kvar < kbound] (tile-var-invariant): real
              products stop there, the rest of the chain adds zeros *)
      kmin : Expr.t;  (** inner loop bounds, tile-var-invariant *)
      kext : Expr.t;
      shared : Var.t;
      shared_ix : affine;  (** affine in the inner var; tile-var-invariant *)
      shared_left : bool;  (** shared operand is the left multiplicand *)
      moving : Var.t;
      moving_kstride : Expr.t;  (** inner-var stride, tile-var-invariant *)
      moving_jbase : affine;  (** inner-var base, as affine in the tile var *)
    }

(* Peelable binding / movable condition: pure arithmetic over any
   variables (no loads, no float ops, no faulting division), so inlining
   it — or evaluating it a different number of times — cannot fault or
   perturb the float stream. *)
let int_pure_open e = int_pure (Expr.free_vars e) e
let bool_pure_open e = bool_pure (Expr.free_vars e) e

exception Not_nest

(* Buffers an expression loads from, except reads of [dst]'s own cell
   [dst_idx]; raises if [dst] is read at any other index (the engine
   could not preserve evaluation order for those). *)
let cell_local_bufs ~dst ~dst_idx ~sub e : Var.t list =
  Expr.fold
    (fun acc n ->
      match n with
      | Expr.Load { buf; index } ->
          if Var.equal buf dst then
            if sub index = dst_idx then acc else raise Not_nest
          else buf :: acc
      | _ -> acc)
    [] e

let rec conjuncts c =
  match c with Expr.And (a, b) -> conjuncts a @ conjuncts b | c -> [ c ]

let classify_nest ~var (body : Stmt.t) : nest option =
  try
    let guard, core =
      match body with Stmt.If (c, t, None) -> (Some c, t) | s -> (None, s)
    in
    (match guard with
    | Some g when not (bool_pure_open g) -> raise Not_nest
    | _ -> ());
    let rec peel m s =
      match s with
      | Stmt.Let_stmt (v, e, b) ->
          let e = Expr.subst m e in
          if int_pure_open e then peel (Var.Map.add v e m) b else (m, s)
      | _ -> (m, s)
    in
    let m, core = peel Var.Map.empty core in
    let init_store, core, epi_stmt =
      match core with
      | Stmt.Seq [ (Stmt.Store _ as i); mid ] -> (Some i, mid, None)
      | Stmt.Seq [ (Stmt.Store _ as i); mid; (Stmt.Store _ as e) ] -> (Some i, mid, Some e)
      | s -> (None, s, None)
    in
    let m, core = peel m core in
    let sub e = Expr.subst m e in
    match core with
    | Stmt.For { var = kvar; min = kmin; extent = kext; kind = Stmt.Serial; body = kb }
      when (not (Expr.uses_var var (sub kmin))) && not (Expr.uses_var var (sub kext)) -> (
        match kb with
        | Stmt.Reduce_store { buf = dst; index = dst_idx; value; op = Stmt.Sum }
          when not (Expr.uses_var kvar dst_idx) -> (
            let a, ia, b, ib, mask =
              match value with
              | Expr.Binop
                  (Expr.Mul, Expr.Load { buf = a; index = ia }, Expr.Load { buf = b; index = ib })
                ->
                  (a, ia, b, ib, None)
              (* masked dot: the false branch must be a literal +0.0 —
                 adding it never changes the accumulator except to clear a
                 negative zero, which the engine reproduces *)
              | Expr.Select
                  ( cond,
                    Expr.Binop
                      ( Expr.Mul,
                        Expr.Load { buf = a; index = ia },
                        Expr.Load { buf = b; index = ib } ),
                    Expr.Float z )
                when Int64.equal (Int64.bits_of_float z) 0L ->
                  (a, ia, b, ib, Some (sub cond))
              | _ -> raise Not_nest
            in
            (* split the mask into inner-var-invariant conjuncts and at
               most one [kvar < bound] threshold; anything else rejects *)
            let vmask, kbound =
              match mask with
              | None -> (None, None)
              | Some cond ->
                  let vm, kb =
                    List.fold_left
                      (fun (vm, kb) c ->
                        if not (Expr.uses_var kvar c) then
                          if bool_pure_open c then (c :: vm, kb) else raise Not_nest
                        else
                          match c with
                          | Expr.Cmp (Expr.Lt, Expr.Var k', bound)
                            when Var.equal k' kvar
                                 && (not (Expr.uses_var kvar bound))
                                 && (not (Expr.uses_var var bound))
                                 && int_pure_open bound && kb = None ->
                              (vm, Some bound)
                          | _ -> raise Not_nest)
                      ([], None) (conjuncts cond)
                  in
                  let vm =
                    match List.rev vm with
                    | [] -> None
                    | c :: rest ->
                        Some (List.fold_left (fun e c -> Expr.And (e, c)) c rest)
                  in
                  (vm, kb)
            in
            match (affine_in kvar ia, affine_in kvar ib) with
            | Some a_ix, Some b_ix ->
                let dst_idx = sub dst_idx in
                let sub_ax (ax : affine) = { base = sub ax.base; stride = sub ax.stride } in
                let a_ix = sub_ax a_ix and b_ix = sub_ax b_ix in
                (* init / epilogue must address exactly the dot's cell *)
                let init, init_bufs =
                  match init_store with
                  | None -> (None, [])
                  | Some (Stmt.Store { buf; index; value })
                    when Var.equal buf dst && sub index = dst_idx ->
                      (Some (sub value), cell_local_bufs ~dst ~dst_idx ~sub value)
                  | Some _ -> raise Not_nest
                in
                let epi, epi_bufs =
                  match epi_stmt with
                  | None -> (None, [])
                  | Some (Stmt.Store { buf; index; value })
                    when Var.equal buf dst && sub index = dst_idx ->
                      (* substitute the peeled bindings so the engine can
                         compile the store stand-alone *)
                      ( Some (Stmt.Store { buf; index = sub index; value = sub value }),
                        cell_local_bufs ~dst ~dst_idx ~sub value )
                  | Some _ -> raise Not_nest
                in
                let dst_ix =
                  match affine_in var dst_idx with Some ax -> ax | None -> raise Not_nest
                in
                let invariant (ax : affine) =
                  (not (Expr.uses_var var ax.base)) && not (Expr.uses_var var ax.stride)
                in
                let moving_of (ax : affine) =
                  if Expr.uses_var var ax.stride then None
                  else Option.map (fun jbase -> (ax.stride, jbase)) (affine_in var ax.base)
                in
                let mk ~shared ~shared_ix ~shared_left ~moving mv =
                  Option.map
                    (fun (moving_kstride, moving_jbase) ->
                      Tiled_dot
                        { dst; dst_ix; guard; init; init_bufs; epi; epi_bufs; vmask;
                          kbound; kmin = sub kmin; kext = sub kext; shared; shared_ix;
                          shared_left; moving; moving_kstride; moving_jbase })
                    mv
                in
                if invariant a_ix then
                  mk ~shared:a ~shared_ix:a_ix ~shared_left:true ~moving:b (moving_of b_ix)
                else if invariant b_ix then
                  mk ~shared:b ~shared_ix:b_ix ~shared_left:false ~moving:a (moving_of a_ix)
                else None
            | _ -> None)
        | _ -> None)
    | _ -> None
  with Not_nest -> None
