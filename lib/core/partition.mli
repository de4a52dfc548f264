(** One-dimensional partition patterns (the paper's [Partition_pattern]).

    [apply] divides a sequential array into a ParArray of sub-arrays;
    [unapply] is its exact inverse (the paper's [gather]). Within each part
    elements keep source order, so [unapply t (apply t a) = a] for every
    pattern and array. *)

type t =
  | Block of int  (** balanced contiguous blocks over [p] parts *)
  | Cyclic of int  (** element [i] to part [i mod p] *)
  | Block_cyclic of { parts : int; block : int }
      (** blocks of [block] elements dealt round-robin *)
  | Custom of { parts : int; name : string; assign : int -> int }
      (** arbitrary assignment; must land in [\[0, parts)] *)

val parts : t -> int
val name : t -> string

val assign : t -> n:int -> int -> int
(** Owning part of element [i] in an array of length [n]. *)

val part_sizes : t -> n:int -> int array

val block_bounds : n:int -> p:int -> int array
(** Balanced-block boundaries: part [k] of a [Block p] pattern owns source
    range [\[b.(k), b.(k+1))]. The one definition of this geometry:
    [scl_sim]'s Dvec, the transform interpreters and executors, and the
    block-distributed algorithms all call it, so their layouts agree. *)

val apply : t -> 'a array -> 'a array Par_array.t
(** The paper's [partition]. Parts may be empty when [n < parts].

    [Block], [Cyclic] and [Block_cyclic] take specialised single-pass fast
    paths ([Array.sub] / strided copies / whole-block blits); [Custom]
    falls back to {!apply_generic}. *)

val unapply : t -> 'a array Par_array.t -> 'a array
(** The paper's [gather]. @raise Invalid_argument if the part sizes are
    inconsistent with the pattern. Regular patterns validate the sizes
    against their closed-form layout and then copy without any per-element
    [assign]. *)

val apply_generic : t -> 'a array -> 'a array Par_array.t
(** The generic assign-driven two-pass implementation — the executable
    specification every {!apply} fast path must agree with (exposed for
    property tests and benchmarks). *)

val unapply_generic : t -> 'a array Par_array.t -> 'a array
(** Generic inverse, same role as {!apply_generic}. *)

val split : t -> 'a Par_array.t -> 'a Par_array.t Par_array.t
(** The paper's [split]: regroup a ParArray into a nested ParArray —
    dynamic processor grouping. For [Block] patterns the groups are O(1)
    zero-copy {!Par_array.sub_view}s of the source. *)

val combine : 'a Par_array.t Par_array.t -> 'a Par_array.t
(** The paper's [combine]: flatten a nested ParArray (left inverse of
    [split] for [Block]; in general a flattening). *)
