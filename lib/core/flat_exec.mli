(** Flat-tier host execution backends: unboxed map/fold/scan (plus the
    fused forms) over [float array] payloads, which OCaml stores unboxed.

    The operator is a first-order description rather than a bare closure,
    and a fused map run is a {!Chain} of descriptions. Each kernel maps
    one cache block (2048 floats) at a time with monomorphic
    [Array.unsafe_get]/[unsafe_set] stage loops on statically typed
    [float array]s — a chain's
    first stage writes the block, later stages rewrite it in place — and
    then reduces or scans the block in a loop specialised to the
    {!fun2}, with an unboxed accumulator. Known primitives and chains of
    them therefore run with no per-element closure call and no
    per-element allocation (a few words per block; the test suite pins a
    budget of n/100 minor words). [Fun1]/[Fun2] are the escape hatches for
    arbitrary functions and pay the boxed calling convention per element.

    {!on_pool} chunks by index range with the pool's bytes-aware grain
    ([Runtime.Pool.grain_for_bytes]); its scan is a Blelloch-style
    two-phase layout — each chunk is mapped into the output and reduced
    into an unboxed partials array, a sequential exclusive scan of the
    partials gives each chunk's carry, then each chunk is scanned in
    place. The map runs once per element, with no option boxing; the
    boxed three-phase scan pays a third full pass and an ['a option] per
    chunk.

    All loops apply operators in ascending index order and combine chunk
    results in chunk order, so on exactly-associative operators (the
    dyadic-exact [Transform.Fn] float library) results are bit-identical
    to the boxed [Scl] skeletons on both backends — the contract the
    property tests and diffcheck's host-flat legs pin. *)

type fun1 =
  | Id
  | Neg
  | Scale of float  (** [fun x -> x *. c] *)
  | Offset of float  (** [fun x -> x +. c] *)
  | Chain of fun1 list
      (** [Chain [f1; ...; fk]] is [fk (... (f1 x))]: a fused map run,
          applied stage by stage over a cache block *)
  | Fun1 of (float -> float)  (** escape hatch: boxed per-element call *)

type fun2 =
  | Add
  | Mul
  | Max
  | Min
  | Fun2 of (float -> float -> float)  (** escape hatch: boxed per-element call *)

val apply1 : fun1 -> float -> float
(** Scalar meaning of a [fun1]: the specification the kernels implement. *)

val apply2 : fun2 -> float -> float -> float
val fun1_name : fun1 -> string
val fun2_name : fun2 -> string

(** A backend. No kernel writes to its input, and every array it returns
    is freshly allocated — [fmap Id a] is a copy of [a], never [a]. *)
type t = {
  name : string;
  fmap : fun1 -> float array -> float array;
  ffold : fun2 -> float array -> float;
      (** combine in index order. @raise Invalid_argument on empty input *)
  fscan : fun2 -> float array -> float array;  (** inclusive prefix *)
  fmap_fold : fun1 -> fun2 -> float array -> float;
      (** [ffold op (fmap f a)] in one pass, no intermediate array *)
  fmap_scan : fun1 -> fun2 -> float array -> float array;
      (** [fscan op (fmap f a)] in one pass, no intermediate array *)
}

val sequential : t
(** The defining semantics: one left-to-right pass per kernel. *)

val on_pool : Runtime.Pool.t -> t
(** Work-stealing pool backend: index-range chunking, bytes-aware grain,
    two-phase reduce and Blelloch two-phase scan. *)
