(** Prelude cache: reuse built auxiliary structures across requests whose
    batch has the same raggedness signature.

    The paper amortises prelude cost across the six layers of one encoder
    (§7.4); a request stream amortises further — across requests — because
    mini-batches with the same multiset of sequence lengths recur.  The
    cache key is the canonical pair (def set, concrete length tables):
    defs are identified by name (the repository-wide invariant behind
    {!Prelude.dedup} is that a def's name determines its content given the
    environment) and the environment by {!Sig.of_tables} over the concrete
    length arrays.  Because the tables' {e values} are part of the key,
    mutating any sequence length yields a different key — stale reuse is
    impossible by construction; keys compare as full canonical strings,
    never as hashes, so a collision can cost a miss but never a wrong
    reuse. *)

(** [build_cached ~tables_sig defs lenv] — like {!Prelude.build}, but
    consults the cache first (defs deduplicated, {!Prelude.build}'s
    default).  [tables_sig] must be {!Sig.of_tables} over
    the concrete tables backing {e every} length function the defs read
    (the serving layer constructs [lenv] from exactly those tables, so the
    signature determines the build).  Returns the built structures and
    whether they came from the cache; on a hit no def is computed — the
    host work for the request is zero.  Counters: [prelude_cache.hit] /
    [prelude_cache.miss]. *)
val build_cached :
  tables_sig:Sig.t -> Prelude.def list -> Lenfun.env -> Prelude.built * bool

(** The cache key {!build_cached} derives: canonical def-name set plus
    [tables_sig].  Deriving it walks the def list; a caller serving
    repeat shapes can compute it once and replay lookups through
    {!build_keyed}. *)
val key_of : tables_sig:Sig.t -> Prelude.def list -> Sig.t

(** [build_keyed ~key defs lenv] — {!build_cached} with the key already
    derived ({!key_of}); [defs] is forced only on a miss, so a hit does
    one bounded-cache lookup and nothing else.  The cache's LRU bound
    still governs: an evicted entry rebuilds (and reports a miss) like
    any other. *)
val build_keyed :
  key:Sig.t -> (unit -> Prelude.def list) -> Lenfun.env -> Prelude.built * bool

(** [build_delta ~key ~prev defs lenv] — {!build_keyed} with incremental
    prelude maintenance on a miss (the decode fast path): [prev] is forced
    only then and names the predecessor step's key and environment (for
    decode, the same batch with every length one smaller).  If the
    predecessor is cached, the new tables are produced by
    {!Prelude.delta_update} — touching only changed rows and sharing
    unchanged arrays — instead of a from-scratch build; otherwise this
    degrades to a plain build.  Correctness does not depend on [prev]
    actually being the predecessor: keys carry the table values, and a
    delta result is bitwise-identical to a fresh build.  Counter:
    [prelude_cache.delta] per delta-built miss. *)
val build_delta :
  key:Sig.t -> prev:(unit -> (Sig.t * Lenfun.env) option) ->
  (unit -> Prelude.def list) -> Lenfun.env -> Prelude.built * bool

(** Explicit invalidation: drop every cached build (for when length
    functions change identity rather than content). *)
val clear : unit -> unit

val size : unit -> int

(** The table is shared across serving worker domains: mutex-protected
    and bounded to {!capacity} entries with least-recently-used eviction
    ([prelude_cache.evicted] counter) — an unbounded table under a
    long-lived stream of never-repeating batch shapes is a memory leak.
    [set_capacity] clamps to >= 1 and evicts immediately when shrinking
    below the current size. *)
val set_capacity : int -> unit

val capacity : unit -> int
