open Ir

(** Analytic cost model over lowered IR.

    Walks a kernel's loop nest and counts the scalar work it performs —
    floating-point ops, integer index arithmetic, loads (with auxiliary /
    uninterpreted-function accesses counted separately: they are the
    indirect accesses whose overhead §D.7 studies), stores, branches and
    math intrinsics.  Loop trip counts are evaluated numerically from the
    launch-time environment (length functions and prelude tables), so the
    wasted computation caused by padding — the paper's central quantity —
    is measured exactly, without executing any floating-point work.

    Loops whose body cost does not depend on the loop variable are
    multiplied rather than iterated, and every loop node memoises its cost
    on the values of the {e control-relevant} outer variables, so full
    transformer-sized kernels cost out in microseconds. *)

type counts = {
  flops : float;
  iops : float;  (** integer/index arithmetic *)
  loads : float;
  indirect : float;  (** loads of prelude-built auxiliary structures *)
  stores : float;
  branches : float;
  intrinsics : float;
}

let zero_counts =
  { flops = 0.; iops = 0.; loads = 0.; indirect = 0.; stores = 0.; branches = 0.; intrinsics = 0. }

let ( ++ ) a b =
  {
    flops = a.flops +. b.flops;
    iops = a.iops +. b.iops;
    loads = a.loads +. b.loads;
    indirect = a.indirect +. b.indirect;
    stores = a.stores +. b.stores;
    branches = a.branches +. b.branches;
    intrinsics = a.intrinsics +. b.intrinsics;
  }

let scale k a =
  {
    flops = k *. a.flops;
    iops = k *. a.iops;
    loads = k *. a.loads;
    indirect = k *. a.indirect;
    stores = k *. a.stores;
    branches = k *. a.branches;
    intrinsics = k *. a.intrinsics;
  }

let total a = a.flops +. a.iops +. a.loads +. a.indirect +. a.stores +. a.branches +. a.intrinsics

(** Machine-shape parameters the cost model needs (the rest — per-op
    nanosecond weights — live in the device model). *)
type params = { lanes : int; vec_width : int }

type env = {
  mutable vars : int Var.Map.t;
  ufuns : (string, int list -> int) Hashtbl.t;
}

let env_create () = { vars = Var.Map.empty; ufuns = Hashtbl.create 16 }
let bind_var env v n = env.vars <- Var.Map.add v n env.vars
let bind_ufun env name f = Hashtbl.replace env.ufuns name f

exception Cost_error of string

let cerr fmt = Fmt.kstr (fun s -> raise (Cost_error s)) fmt

(** Evaluate an integer control expression. *)
let rec eval_int env (e : Expr.t) : int =
  match e with
  | Int n -> n
  | Var v -> (
      match Var.Map.find_opt v env.vars with
      | Some n -> n
      | None -> cerr "cost eval: unbound variable %s" (Var.mangled v))
  | Binop (op, a, b) -> (
      let x = eval_int env a and y = eval_int env b in
      match op with
      | Add -> x + y
      | Sub -> x - y
      | Mul -> x * y
      | Min -> min x y
      | Max -> max x y
      | FloorDiv ->
          if y = 0 then cerr "cost eval: div by zero"
          else if (x < 0) <> (y < 0) && x mod y <> 0 then (x / y) - 1
          else x / y
      | Mod ->
          if y = 0 then cerr "cost eval: mod by zero"
          else
            let r = x mod y in
            if r <> 0 && (r < 0) <> (y < 0) then r + y else r
      | Div -> cerr "cost eval: float division in control expression")
  | Select (c, a, b) -> if eval_bool env c then eval_int env a else eval_int env b
  | Ufun (name, args) -> (
      match Hashtbl.find_opt env.ufuns name with
      | Some f -> f (List.map (eval_int env) args)
      | None -> cerr "cost eval: unbound ufun %s" name)
  | Let (v, value, body) ->
      let saved = env.vars in
      bind_var env v (eval_int env value);
      let r = eval_int env body in
      env.vars <- saved;
      r
  | _ -> cerr "cost eval: non-integer control expression"

and eval_bool env (e : Expr.t) : bool =
  match e with
  | Bool b -> b
  | Cmp (op, a, b) -> (
      let x = eval_int env a and y = eval_int env b in
      match op with
      | Lt -> x < y
      | Le -> x <= y
      | Gt -> x > y
      | Ge -> x >= y
      | Eq -> x = y
      | Ne -> x <> y)
  | And (a, b) -> eval_bool env a && eval_bool env b
  | Or (a, b) -> eval_bool env a || eval_bool env b
  | Not a -> not (eval_bool env a)
  | _ -> cerr "cost eval: non-boolean condition"

(* Syntactic float-vs-int classification of arithmetic: expressions
   containing float constants, loads or intrinsic calls are float. *)
let rec float_ish (e : Expr.t) : bool =
  match e with
  | Float _ | Load _ | Call _ -> true
  | Binop (_, a, b) -> float_ish a || float_ish b
  | Select (_, a, b) -> float_ish a || float_ish b
  | Let (_, _, b) -> float_ish b
  | _ -> false

(** Static per-evaluation counts of an expression (value-independent:
    [Select] conservatively counts both arms, as GPU predication would).
    Loads/stores to kernel-local scratch ([Alloc]ed buffers, [locals]) are
    register/shared-memory accesses: counted as cheap integer ops, not
    memory traffic. *)
let rec expr_counts_l (locals : Var.Set.t) (e : Expr.t) : counts =
  let expr_counts = expr_counts_l locals in
  match e with
  | Int _ | Float _ | Bool _ | Var _ -> zero_counts
  | Binop (Div, a, b) ->
      let sub = expr_counts a ++ expr_counts b in
      { sub with flops = sub.flops +. 1. }
  | Binop (_, a, b) -> (
      let sub = expr_counts a ++ expr_counts b in
      (* classify as float or int arithmetic: anything touching a float
         literal / load-heavy subtree is ambiguous; we use a syntactic
         heuristic — expressions containing float constants or living under
         Loads are float. *)
      match float_ish e with
      | true -> { sub with flops = sub.flops +. 1. }
      | false -> { sub with iops = sub.iops +. 1. })
  | Cmp (_, a, b) ->
      let sub = expr_counts a ++ expr_counts b in
      { sub with iops = sub.iops +. 1. }
  | And (a, b) | Or (a, b) ->
      let sub = expr_counts a ++ expr_counts b in
      { sub with iops = sub.iops +. 1. }
  | Not a ->
      let sub = expr_counts a in
      { sub with iops = sub.iops +. 1. }
  | Select (c, a, b) ->
      (* predicated select: both arms execute, cheap integer blend *)
      let sub = expr_counts c ++ expr_counts a ++ expr_counts b in
      { sub with iops = sub.iops +. 2. }
  | Load { buf; index } ->
      let sub = expr_counts index in
      if Var.Set.mem buf locals then { sub with iops = sub.iops +. 1. }
      else { sub with loads = sub.loads +. 1. }
  | Ufun (_, args) ->
      let sub = List.fold_left (fun acc a -> acc ++ expr_counts a) zero_counts args in
      { sub with indirect = sub.indirect +. 1. }
  | Call (_, args) ->
      let sub = List.fold_left (fun acc a -> acc ++ expr_counts a) zero_counts args in
      { sub with intrinsics = sub.intrinsics +. 1. }
  | Access { indices; _ } ->
      let sub = List.fold_left (fun acc a -> acc ++ expr_counts a) zero_counts indices in
      { sub with loads = sub.loads +. 1. }
  | Let (_, v, b) -> expr_counts v ++ expr_counts b

let expr_counts e = expr_counts_l Var.Set.empty e

(** Control-relevant variables: those whose value can change the counts
    (loop bounds, conditions, and let-bound vars feeding them). *)
let rec relevant (s : Stmt.t) : Var.Set.t =
  match s with
  | For { var; min; extent; body; _ } ->
      Var.Set.union
        (Var.Set.union (Expr.free_vars min) (Expr.free_vars extent))
        (Var.Set.remove var (relevant body))
  | Let_stmt (v, e, body) ->
      let rb = relevant body in
      if Var.Set.mem v rb then Var.Set.union (Expr.free_vars e) (Var.Set.remove v rb)
      else Var.Set.remove v rb
  | Store _ | Reduce_store _ | Eval _ | Nop -> Var.Set.empty
  | If (c, a, b) ->
      let s = Var.Set.union (Expr.free_vars c) (relevant a) in
      (match b with Some b -> Var.Set.union s (relevant b) | None -> s)
  | Seq l -> List.fold_left (fun acc x -> Var.Set.union acc (relevant x)) Var.Set.empty l
  | Alloc { size; body; buf } ->
      Var.Set.union (Expr.free_vars size) (Var.Set.remove buf (relevant body))

(* Loop-memoisation visibility: every loop-node cost lookup is counted
   process-wide, so the memo's effectiveness on real kernels can be
   asserted instead of assumed.  Tallied per evaluation and added once at
   its end, not per lookup. *)
let memo_hits = Obs.Metrics.counter "cost_model.memo_hits"
let memo_misses = Obs.Metrics.counter "cost_model.memo_misses"

(* ---------------- slot-resolved programs ----------------

   A statement is compiled once into closures over integer slots: every
   variable gets a slot index and every uninterpreted function a function
   slot, both resolved at compile time.  A compiled {!prog} is immutable;
   the mutable part of one evaluation — slot values, bound functions and
   the loop memos — lives in a [state] allocated per evaluation, so a
   program can be shared across calls (and domains) whose length tables
   differ. *)

type ufun = { call1 : int -> int; calln : int list -> int }

(* Loop memos are keyed by the values of the loop's control-relevant
   outer variables, read from their slots. *)
module Key_tbl = Hashtbl.Make (struct
  type t = int array

  let equal (a : int array) (b : int array) =
    let n = Array.length a in
    n = Array.length b
    &&
    let rec go i = i = n || (Array.unsafe_get a i = Array.unsafe_get b i && go (i + 1)) in
    go 0

  let hash (a : int array) =
    Array.fold_left (fun h x -> (h * 65599) + x) (Array.length a) a land max_int
end)

(* [min_int] marks an unbound slot; it is also what an unbound variable
   contributes to a memo key. *)
let unbound = min_int

(* One loop node's memo for one evaluation: a loop with no control
   variables has a single value to remember. *)
type memo = Empty | Single of counts | Keyed of counts Key_tbl.t

type state = {
  slots : int array;
  fns : ufun array;
  memos : memo array;  (** one per loop node *)
  mutable hits : int;
  mutable misses : int;
}

(* Block enumeration, resolved at compile time: the chain of leading grid
   loops and lets that [enumerate_blocks] peels, ending in the one body
   every block shares. *)
type grid =
  | Leaf of (state -> counts)
  | Peel of { slot : int; min : state -> int; extent : state -> int; body : grid }
  | Bind of { slot : int; value : state -> int; body : grid }

type prog = {
  grid : grid;
  nslots : int;
  nmemos : int;
  var_slots : (Var.t * int) list;
  fn_names : string array;
}

(* compile-time slot allocation *)
type cctx = {
  var_slot : (int, int) Hashtbl.t;
  mutable vars : (Var.t * int) list;
  fn_slot : (string, int) Hashtbl.t;
  mutable fns : string list;
  mutable memo_count : int;
}

let slot_of cx (v : Var.t) =
  match Hashtbl.find_opt cx.var_slot v.Var.id with
  | Some i -> i
  | None ->
      let i = Hashtbl.length cx.var_slot in
      Hashtbl.add cx.var_slot v.Var.id i;
      cx.vars <- (v, i) :: cx.vars;
      i

let fn_of cx name =
  match Hashtbl.find_opt cx.fn_slot name with
  | Some i -> i
  | None ->
      let i = Hashtbl.length cx.fn_slot in
      Hashtbl.add cx.fn_slot name i;
      cx.fns <- name :: cx.fns;
      i

(* [eval_int]/[eval_bool] over slots: same arithmetic, same errors. *)
let rec cint cx (e : Expr.t) : state -> int =
  match e with
  | Int n -> fun _ -> n
  | Var v ->
      let s = slot_of cx v in
      fun st ->
        let x = Array.unsafe_get st.slots s in
        if x = unbound then cerr "cost eval: unbound variable %s" (Var.mangled v) else x
  | Binop (op, a, b) -> (
      let fa = cint cx a and fb = cint cx b in
      match op with
      | Add -> fun st -> fa st + fb st
      | Sub ->
          fun st ->
            let x = fa st in
            x - fb st
      | Mul -> fun st -> fa st * fb st
      | Min -> fun st -> min (fa st) (fb st)
      | Max -> fun st -> max (fa st) (fb st)
      | FloorDiv ->
          fun st ->
            let x = fa st in
            let y = fb st in
            if y = 0 then cerr "cost eval: div by zero"
            else if (x < 0) <> (y < 0) && x mod y <> 0 then (x / y) - 1
            else x / y
      | Mod ->
          fun st ->
            let x = fa st in
            let y = fb st in
            if y = 0 then cerr "cost eval: mod by zero"
            else
              let r = x mod y in
              if r <> 0 && (r < 0) <> (y < 0) then r + y else r
      | Div -> fun _ -> cerr "cost eval: float division in control expression")
  | Select (c, a, b) ->
      let fc = cbool cx c and fa = cint cx a and fb = cint cx b in
      fun st -> if fc st then fa st else fb st
  | Ufun (name, [ a ]) ->
      let u = fn_of cx name and fa = cint cx a in
      fun st -> (Array.unsafe_get st.fns u).call1 (fa st)
  | Ufun (name, args) ->
      let u = fn_of cx name and fargs = List.map (cint cx) args in
      fun st -> (Array.unsafe_get st.fns u).calln (List.map (fun f -> f st) fargs)
  | Let (v, value, body) ->
      let s = slot_of cx v and fv = cint cx value and fb = cint cx body in
      fun st ->
        let saved = st.slots.(s) in
        st.slots.(s) <- fv st;
        let r = fb st in
        st.slots.(s) <- saved;
        r
  | _ -> fun _ -> cerr "cost eval: non-integer control expression"

and cbool cx (e : Expr.t) : state -> bool =
  match e with
  | Bool b -> fun _ -> b
  | Cmp (op, a, b) -> (
      let fa = cint cx a and fb = cint cx b in
      match op with
      | Lt -> fun st -> fa st < fb st
      | Le -> fun st -> fa st <= fb st
      | Gt -> fun st -> fa st > fb st
      | Ge -> fun st -> fa st >= fb st
      | Eq -> fun st -> fa st = fb st
      | Ne -> fun st -> fa st <> fb st)
  | And (a, b) ->
      let fa = cbool cx a and fb = cbool cx b in
      fun st -> fa st && fb st
  | Or (a, b) ->
      let fa = cbool cx a and fb = cbool cx b in
      fun st -> fa st || fb st
  | Not a ->
      let fa = cbool cx a in
      fun st -> not (fa st)
  | _ -> fun _ -> cerr "cost eval: non-boolean condition"

(* The cost function of a statement.  [lanes_left] tracks the remaining
   within-block thread parallelism: nested GPU-thread loops consume the
   lane budget multiplicatively (a 64x128 thread grid on a 128-lane block
   divides total work by 128, not 64). *)
let comp_stmt cx (params : params) (stmt : Stmt.t) : state -> counts =
  let rec comp ~lanes_left ~locals (s : Stmt.t) : state -> counts =
    let expr_counts = expr_counts_l locals in
    let comp ?(locals = locals) ~lanes_left s = comp ~lanes_left ~locals s in
    match s with
    | Nop -> fun _ -> zero_counts
    | Eval e ->
        let c = expr_counts e in
        fun _ -> c
    | Store { buf; index; value } ->
        let c = expr_counts index ++ expr_counts value in
        let c =
          if Var.Set.mem buf locals then { c with iops = c.iops +. 1. }
          else { c with stores = c.stores +. 1. }
        in
        fun _ -> c
    | Reduce_store { index; value; _ } ->
        (* the accumulator lives in a register across the reduction; count
           the combine flop but not a memory round-trip per iteration *)
        let c = expr_counts index ++ expr_counts value in
        let c = { c with flops = c.flops +. 1. } in
        fun _ -> c
    | Let_stmt (v, e, body) ->
        let fb = comp ~lanes_left body in
        let ec = expr_counts e in
        if Var.Set.mem v (relevant body) then begin
          let s = slot_of cx v and fe = cint cx e in
          fun st ->
            let saved = st.slots.(s) in
            st.slots.(s) <- fe st;
            let r = fb st in
            st.slots.(s) <- saved;
            ec ++ r
        end
        else fun st -> ec ++ fb st
    | If (c, a, b) ->
        let fa = comp ~lanes_left a in
        let fb = Option.map (comp ~lanes_left) b in
        let fc = cbool cx c in
        let cc = expr_counts c in
        let cc = { cc with branches = cc.branches +. 1. } in
        fun st ->
          if fc st then cc ++ fa st
          else cc ++ (match fb with Some f -> f st | None -> zero_counts)
    | Seq l ->
        let fs = List.map (comp ~lanes_left) l in
        fun st -> List.fold_left (fun acc f -> acc ++ f st) zero_counts fs
    | Alloc { buf; body; _ } -> comp ~locals:(Var.Set.add buf locals) ~lanes_left body
    | For { var; min; extent; kind; body } ->
        let rb = relevant body in
        let var_relevant = Var.Set.mem var rb in
        (* static divisor for thread loops with constant extents *)
        let static_div =
          match (kind, extent) with
          | Gpu_thread, Expr.Int n when n > 0 -> Some (Stdlib.min lanes_left (Stdlib.max 1 n))
          | _ -> None
        in
        let body_lanes =
          match (kind, static_div) with
          | Gpu_thread, Some d -> Stdlib.max 1 (lanes_left / d)
          | Gpu_thread, None -> 1
          | _ -> lanes_left
        in
        let fb = comp ~lanes_left:body_lanes body in
        let key_slots =
          Array.of_list
            (List.map (slot_of cx)
               (Var.Set.elements
                  (Var.Set.union
                     (Var.Set.union (Expr.free_vars min) (Expr.free_vars extent))
                     (Var.Set.remove var rb))))
        in
        let vs = slot_of cx var and fmin = cint cx min and fext = cint cx extent in
        let mi = cx.memo_count in
        cx.memo_count <- mi + 1;
        let adjust n (c : counts) =
          let c = { c with iops = c.iops +. float_of_int n } (* loop bookkeeping *) in
          match kind with
          | Vectorized -> scale (1. /. float_of_int (Stdlib.min params.vec_width (Stdlib.max 1 n))) c
          | Gpu_thread ->
              let d =
                match static_div with
                | Some d -> d
                | None -> Stdlib.min lanes_left (Stdlib.max 1 n)
              in
              scale (1. /. float_of_int d) c
          | _ -> c
        in
        let eval st =
          let m = fmin st and n = fext st in
          if n <= 0 then zero_counts
          else if not var_relevant then adjust n (scale (float_of_int n) (fb st))
          else begin
            let acc = ref zero_counts in
            let saved = st.slots.(vs) in
            for i = m to m + n - 1 do
              st.slots.(vs) <- i;
              acc := !acc ++ fb st
            done;
            st.slots.(vs) <- saved;
            adjust n !acc
          end
        in
        if Array.length key_slots = 0 then fun st ->
          match st.memos.(mi) with
          | Single c ->
              st.hits <- st.hits + 1;
              c
          | _ ->
              st.misses <- st.misses + 1;
              let c = eval st in
              st.memos.(mi) <- Single c;
              c
        else fun st ->
          let key = Array.map (fun s -> Array.unsafe_get st.slots s) key_slots in
          let tbl =
            match st.memos.(mi) with
            | Keyed t -> t
            | _ ->
                let t = Key_tbl.create 16 in
                st.memos.(mi) <- Keyed t;
                t
          in
          match Key_tbl.find_opt tbl key with
          | Some c ->
              st.hits <- st.hits + 1;
              c
          | None ->
              st.misses <- st.misses + 1;
              let c = eval st in
              Key_tbl.replace tbl key c;
              c
  in
  comp ~lanes_left:params.lanes ~locals:Var.Set.empty stmt

let prepare ?grid_kind (params : params) (stmt : Stmt.t) : prog =
  let cx =
    {
      var_slot = Hashtbl.create 32;
      vars = [];
      fn_slot = Hashtbl.create 8;
      fns = [];
      memo_count = 0;
    }
  in
  (* the same peeling as [enumerate_blocks]: leading grid loops and the
     lets between them *)
  let rec peel (s : Stmt.t) =
    match (s, grid_kind) with
    | For { var; min; extent; kind; body }, Some gk when kind = gk ->
        let slot = slot_of cx var and min = cint cx min and extent = cint cx extent in
        Peel { slot; min; extent; body = peel body }
    | Let_stmt (v, e, body), Some _ ->
        let slot = slot_of cx v and value = cint cx e in
        Bind { slot; value; body = peel body }
    | s, _ -> Leaf (comp_stmt cx params s)
  in
  let grid = peel stmt in
  {
    grid;
    nslots = Hashtbl.length cx.var_slot;
    nmemos = cx.memo_count;
    var_slots = cx.vars;
    fn_names = Array.of_list (List.rev cx.fns);
  }

let fn_unbound name =
  let fail _ = cerr "cost eval: unbound ufun %s" name in
  { call1 = fail; calln = fail }

let iter_blocks ?(vars = Var.Map.empty) (p : prog) ~(ufun : string -> ufun option)
    (f : counts -> unit) : unit =
  let slots = Array.make p.nslots unbound in
  List.iter
    (fun (v, s) -> match Var.Map.find_opt v vars with Some n -> slots.(s) <- n | None -> ())
    p.var_slots;
  let st =
    {
      slots;
      fns =
        Array.map
          (fun name -> match ufun name with Some u -> u | None -> fn_unbound name)
          p.fn_names;
      memos = Array.make p.nmemos Empty;
      hits = 0;
      misses = 0;
    }
  in
  let rec walk = function
    | Leaf n -> f (n st)
    | Peel { slot; min; extent; body } ->
        let m = min st and n = extent st in
        let saved = slots.(slot) in
        for i = m to m + n - 1 do
          slots.(slot) <- i;
          walk body
        done;
        slots.(slot) <- saved
    | Bind { slot; value; body } ->
        let saved = slots.(slot) in
        slots.(slot) <- value st;
        walk body;
        slots.(slot) <- saved
  in
  Fun.protect
    ~finally:(fun () ->
      Obs.Metrics.add memo_hits st.hits;
      Obs.Metrics.add memo_misses st.misses)
    (fun () -> walk p.grid)

let eval ?vars p ~ufun =
  let r = ref zero_counts in
  iter_blocks ?vars p ~ufun (fun c -> r := c);
  !r

(** Enumerate the grid: peel leading loops of [grid_kind] (one block per
    index combination) and return each block's environment and body. *)
let enumerate_blocks ~(grid_kind : Stmt.for_kind) (env : env) (stmt : Stmt.t) :
    (int Var.Map.t * Stmt.t) list =
  let out = ref [] in
  let rec go env_vars (s : Stmt.t) =
    match s with
    | For { var; min; extent; kind; body } when kind = grid_kind ->
        let env' = { env with vars = env_vars } in
        let m = eval_int env' min and n = eval_int env' extent in
        for i = m to m + n - 1 do
          go (Var.Map.add var i env_vars) body
        done
    | Let_stmt (v, e, body) ->
        let env' = { env with vars = env_vars } in
        go (Var.Map.add v (eval_int env' e) env_vars) body
    | s -> out := (env_vars, s) :: !out
  in
  go env.vars stmt;
  List.rev !out
