(** Structural signatures (see sig.mli).

    The canonical form is an s-expression-style string: every node is
    rendered as [(tag field...)], so the rendering is injective on the
    structures it covers.  Variables, dimensions and schedule axes are
    replaced by dense indices assigned at first occurrence in the
    (deterministic) traversal — the alpha-renaming that makes the
    signature independent of the global freshness counters and of display
    names.  Launch-time-resolved names (length functions, prelude tables,
    intrinsics, tensor names) are emitted verbatim: they are part of the
    program's meaning, not of its spelling. *)

type t = string

let equal = String.equal
let compare = String.compare
let canonical s = s

(* FNV-1a, 64-bit. *)
let hash64 (s : string) : int64 =
  let prime = 0x100000001b3L in
  let h = ref 0xcbf29ce484222325L in
  String.iter (fun c -> h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code c))) prime) s;
  !h

let to_hex s = Printf.sprintf "%016Lx" (hash64 s)
let combine ts = "(" ^ String.concat " " ts ^ ")"
let of_string s = "(s " ^ s ^ ")"

(* ------------------------------------------------------------------ *)
(* Canonicalisation context: first-occurrence numbering of variables,
   dimensions and schedule axes. *)

type ctx = {
  b : Buffer.t;
  vars : (int, int) Hashtbl.t;  (* Var.id -> canonical index *)
  dims : (int, int) Hashtbl.t;  (* Dim.id -> canonical index *)
  axes : (int, int) Hashtbl.t;  (* Schedule aid -> canonical index *)
  tensors : (int, unit) Hashtbl.t;  (* buf Var.id of tensors already emitted *)
}

let ctx_create () =
  {
    b = Buffer.create 512;
    vars = Hashtbl.create 32;
    dims = Hashtbl.create 8;
    axes = Hashtbl.create 16;
    tensors = Hashtbl.create 8;
  }

let intern tbl key =
  match Hashtbl.find_opt tbl key with
  | Some i -> i
  | None ->
      let i = Hashtbl.length tbl in
      Hashtbl.add tbl key i;
      i

let pf ctx fmt = Printf.ksprintf (Buffer.add_string ctx.b) fmt
let var_idx ctx (v : Ir.Var.t) = intern ctx.vars (Ir.Var.id v)
let dim_idx ctx (d : Dim.t) = intern ctx.dims d.Dim.id
let emit_var ctx v = pf ctx "v%d" (var_idx ctx v)

(* ------------------------------------------------------------------ *)
(* Expressions and statements. *)

let binop_tag : Ir.Expr.binop -> string = function
  | Add -> "+"
  | Sub -> "-"
  | Mul -> "*"
  | Div -> "/"
  | FloorDiv -> "fd"
  | Mod -> "%"
  | Min -> "mn"
  | Max -> "mx"

let cmpop_tag : Ir.Expr.cmpop -> string = function
  | Lt -> "<"
  | Le -> "<="
  | Gt -> ">"
  | Ge -> ">="
  | Eq -> "=="
  | Ne -> "!="

let rec emit_expr ctx (e : Ir.Expr.t) =
  match e with
  | Int n -> pf ctx "i%d" n
  | Float f -> pf ctx "f%h" f
  | Bool b -> pf ctx "b%b" b
  | Var v -> emit_var ctx v
  | Binop (op, a, b) ->
      pf ctx "(%s " (binop_tag op);
      emit_expr ctx a;
      pf ctx " ";
      emit_expr ctx b;
      pf ctx ")"
  | Cmp (op, a, b) ->
      pf ctx "(%s " (cmpop_tag op);
      emit_expr ctx a;
      pf ctx " ";
      emit_expr ctx b;
      pf ctx ")"
  | And (a, b) -> emit_node ctx "and" [ a; b ]
  | Or (a, b) -> emit_node ctx "or" [ a; b ]
  | Not a -> emit_node ctx "not" [ a ]
  | Select (c, a, b) -> emit_node ctx "sel" [ c; a; b ]
  | Load { buf; index } ->
      pf ctx "(ld ";
      emit_var ctx buf;
      pf ctx " ";
      emit_expr ctx index;
      pf ctx ")"
  | Ufun (name, args) -> emit_node ctx ("uf:" ^ name) args
  | Call (name, args) -> emit_node ctx ("call:" ^ name) args
  | Access { tensor; indices } -> emit_node ctx ("acc:" ^ tensor) indices
  | Let (v, value, body) ->
      pf ctx "(let ";
      emit_expr ctx value;
      pf ctx " ";
      emit_var ctx v;
      pf ctx " ";
      emit_expr ctx body;
      pf ctx ")"

and emit_node ctx tag args =
  pf ctx "(%s" tag;
  List.iter
    (fun a ->
      pf ctx " ";
      emit_expr ctx a)
    args;
  pf ctx ")"

let for_kind_tag : Ir.Stmt.for_kind -> string = function
  | Serial -> "ser"
  | Parallel -> "par"
  | Vectorized -> "vec"
  | Unrolled -> "unr"
  | Gpu_block -> "blk"
  | Gpu_thread -> "thr"

let reduce_tag : Ir.Stmt.reduce_op -> string = function
  | Sum -> "sum"
  | Prod -> "prod"
  | Rmax -> "rmax"
  | Rmin -> "rmin"

let rec emit_stmt ctx (s : Ir.Stmt.t) =
  match s with
  | For { var; min; extent; kind; body } ->
      pf ctx "(for:%s " (for_kind_tag kind);
      emit_var ctx var;
      pf ctx " ";
      emit_expr ctx min;
      pf ctx " ";
      emit_expr ctx extent;
      pf ctx " ";
      emit_stmt ctx body;
      pf ctx ")"
  | Let_stmt (v, e, body) ->
      pf ctx "(lets ";
      emit_expr ctx e;
      pf ctx " ";
      emit_var ctx v;
      pf ctx " ";
      emit_stmt ctx body;
      pf ctx ")"
  | Store { buf; index; value } ->
      pf ctx "(st ";
      emit_var ctx buf;
      pf ctx " ";
      emit_expr ctx index;
      pf ctx " ";
      emit_expr ctx value;
      pf ctx ")"
  | Reduce_store { buf; index; value; op } ->
      pf ctx "(rst:%s " (reduce_tag op);
      emit_var ctx buf;
      pf ctx " ";
      emit_expr ctx index;
      pf ctx " ";
      emit_expr ctx value;
      pf ctx ")"
  | If (c, a, b) ->
      pf ctx "(if ";
      emit_expr ctx c;
      pf ctx " ";
      emit_stmt ctx a;
      (match b with
      | Some b ->
          pf ctx " ";
          emit_stmt ctx b
      | None -> ());
      pf ctx ")"
  | Seq l ->
      pf ctx "(seq";
      List.iter
        (fun s ->
          pf ctx " ";
          emit_stmt ctx s)
        l;
      pf ctx ")"
  | Alloc { buf; size; body } ->
      pf ctx "(alloc ";
      emit_expr ctx size;
      pf ctx " ";
      emit_var ctx buf;
      pf ctx " ";
      emit_stmt ctx body;
      pf ctx ")"
  | Eval e ->
      pf ctx "(ev ";
      emit_expr ctx e;
      pf ctx ")"
  | Nop -> pf ctx "nop"

(* ------------------------------------------------------------------ *)
(* Shapes, tensors, operators. *)

let emit_shape ctx (sh : Shape.t) =
  match sh with
  | Shape.Fixed n -> pf ctx "(fix %d)" n
  | Shape.Ragged { dep; fn } -> pf ctx "(rag d%d %s)" (dim_idx ctx dep) (Lenfun.name fn)

let emit_tensor ctx (t : Tensor.t) =
  let bid = Ir.Var.id t.Tensor.buf in
  if Hashtbl.mem ctx.tensors bid then pf ctx "(tref v%d)" (var_idx ctx t.Tensor.buf)
  else begin
    Hashtbl.add ctx.tensors bid ();
    pf ctx "(tensor:%s " t.Tensor.name;
    emit_var ctx t.Tensor.buf;
    pf ctx " (dims";
    List.iter (fun d -> pf ctx " d%d" (dim_idx ctx d)) t.Tensor.dims;
    pf ctx ") (ext";
    List.iter
      (fun sh ->
        pf ctx " ";
        emit_shape ctx sh)
      t.Tensor.extents;
    pf ctx ") (pads";
    Array.iter (pf ctx " %d") t.Tensor.pads;
    pf ctx ") bulk%d" t.Tensor.bulk_pad;
    (match t.Tensor.fused_dims with
    | Some (i, j) -> pf ctx " (fdims %d %d)" i j
    | None -> ());
    pf ctx ")"
  end

let emit_op ctx (op : Op.t) =
  pf ctx "(op:%s" op.Op.name;
  pf ctx " (dv";
  Array.iter
    (fun v ->
      pf ctx " ";
      emit_var ctx v)
    op.Op.dim_vars;
  pf ctx ") (lext";
  Array.iter
    (fun sh ->
      pf ctx " ";
      emit_shape ctx sh)
    op.Op.loop_extents;
  pf ctx ") (rv";
  Array.iter
    (fun (r : Op.rvar) ->
      pf ctx " (";
      emit_var ctx r.Op.rv;
      pf ctx " d%d " (dim_idx ctx r.Op.rdim);
      emit_shape ctx r.Op.rextent;
      pf ctx ")")
    op.Op.rvars;
  pf ctx ")";
  (match op.Op.reduce with
  | Some r -> pf ctx " red:%s" (reduce_tag r)
  | None -> pf ctx " map");
  pf ctx " (body ";
  emit_expr ctx op.Op.body;
  pf ctx ") (init ";
  emit_expr ctx op.Op.init;
  pf ctx ")";
  (match op.Op.epilogue with
  | Some post ->
      (* Serialise the epilogue by probing it with a fresh variable. *)
      let probe = Ir.Var.fresh "sig_probe" in
      pf ctx " (epi ";
      emit_var ctx probe;
      pf ctx " ";
      emit_expr ctx (post (Ir.Expr.var probe));
      pf ctx ")"
  | None -> ());
  pf ctx " (out ";
  emit_tensor ctx op.Op.out;
  pf ctx ") (reads";
  List.iter
    (fun t ->
      pf ctx " ";
      emit_tensor ctx t)
    op.Op.reads;
  pf ctx "))"

(* ------------------------------------------------------------------ *)
(* Schedules. *)

let remap_tag : Schedule.remap_policy -> string = function
  | Schedule.No_remap -> "none"
  | Schedule.Descending_work -> "desc"

let range_tag : Schedule.range_mode -> string = function
  | Schedule.Full -> "full"
  | Schedule.Tiles_only -> "tiles"
  | Schedule.Tail_only -> "tail"

let rec emit_axis ctx (a : Schedule.axis) =
  match Hashtbl.find_opt ctx.axes a.Schedule.aid with
  | Some i -> pf ctx "(a %d)" i
  | None ->
      let i = Hashtbl.length ctx.axes in
      Hashtbl.add ctx.axes a.Schedule.aid i;
      pf ctx "(axis %d " i;
      emit_var ctx a.Schedule.avar;
      pf ctx " k:%s p%d r:%s e%b " (for_kind_tag a.Schedule.kind) a.Schedule.pad
        (remap_tag a.Schedule.remap) a.Schedule.elide_guard;
      (match a.Schedule.origin with
      | Schedule.Root (Schedule.Data i) -> pf ctx "(root-d %d)" i
      | Schedule.Root (Schedule.Reduction i) -> pf ctx "(root-r %d)" i
      | Schedule.Split_outer (p, f) ->
          pf ctx "(so ";
          emit_axis ctx p;
          pf ctx " %d)" f
      | Schedule.Split_inner (p, f) ->
          pf ctx "(si ";
          emit_axis ctx p;
          pf ctx " %d)" f
      | Schedule.Fused { fa; fb; f_kind } -> (
          pf ctx "(fz ";
          emit_axis ctx fa;
          pf ctx " ";
          emit_axis ctx fb;
          match f_kind with
          | Schedule.Dense_fuse n -> pf ctx " (df %d))" n
          | Schedule.Ragged_fuse
              { fn_name; count; inner_pad; triple; off_name; total_name; real_total_name } ->
              pf ctx " (rf %s c%d ip%d %s %s %s %s %s %s))" fn_name count inner_pad off_name
                total_name real_total_name triple.Ir.Simplify.fo triple.Ir.Simplify.fi
                triple.Ir.Simplify.oif));
      pf ctx ")"

let guard_tag : Schedule.guard_mode -> string = function
  | Schedule.Guard -> "guard"
  | Schedule.Elide -> "elide"

let bound_tag : Schedule.boundedness -> string = function
  | Schedule.Compute_bound -> "cb"
  | Schedule.Memory_bound -> "mb"

let emit_schedule ctx (s : Schedule.t) =
  pf ctx "(sched ";
  emit_op ctx s.Schedule.op;
  pf ctx " (droots";
  Array.iter
    (fun a ->
      pf ctx " ";
      emit_axis ctx a)
    s.Schedule.data_roots;
  pf ctx ") (rroots";
  Array.iter
    (fun a ->
      pf ctx " ";
      emit_axis ctx a)
    s.Schedule.red_roots;
  pf ctx ") (leaves";
  List.iter
    (fun a ->
      pf ctx " ";
      emit_axis ctx a)
    s.Schedule.leaves;
  pf ctx ") g:%s h%b eff%h b:%s)" (guard_tag s.Schedule.guard_mode) s.Schedule.hoist
    s.Schedule.eff (bound_tag s.Schedule.bound)

let with_ctx f =
  let ctx = ctx_create () in
  f ctx;
  Buffer.contents ctx.b

let of_stmt s = with_ctx (fun ctx -> emit_stmt ctx s)
let of_schedule s = with_ctx (fun ctx -> emit_schedule ctx s)

let lowering_key ?(ranges : (int * Schedule.range_mode) list = []) ?(init = true)
    ?apply_epilogue ?(name_suffix = "") (s : Schedule.t) : t =
  (* Mirror {!Lower.lower}'s defaulting so equal effective options key
     equally however they were spelled. *)
  let apply_epilogue = match apply_epilogue with Some b -> b | None -> init in
  with_ctx (fun ctx ->
      pf ctx "(lower ";
      emit_schedule ctx s;
      (* Canonicalise range-mode axis ids through the numbering the
         schedule serialisation just assigned.  An id the schedule does
         not reach cannot influence lowering either way, but keep it
         (tagged raw) rather than silently conflating keys. *)
      let canon_aid aid =
        match Hashtbl.find_opt ctx.axes aid with
        | Some i -> Printf.sprintf "a%d" i
        | None -> Printf.sprintf "raw%d" aid
      in
      let rs =
        List.map (fun (aid, m) -> Printf.sprintf "(%s %s)" (canon_aid aid) (range_tag m)) ranges
        |> List.sort String.compare
      in
      pf ctx " (ranges%s)" (String.concat "" (List.map (fun r -> " " ^ r) rs));
      pf ctx " init%b epi%b sfx:%s)" init apply_epilogue name_suffix)

let of_tables (tables : (string * int array) list) : t =
  let tables = List.sort (fun (a, _) (b, _) -> String.compare a b) tables in
  let b = Buffer.create 128 in
  Buffer.add_string b "(tables";
  List.iter
    (fun (name, a) ->
      Buffer.add_string b (Printf.sprintf " (%s n%d" name (Array.length a));
      Array.iter (fun x -> Buffer.add_string b (Printf.sprintf " %d" x)) a;
      Buffer.add_string b ")")
    tables;
  Buffer.add_string b ")";
  Buffer.contents b
