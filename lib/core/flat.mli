(** Unboxed flat arrays: [Bigarray]-backed numeric storage for the fast
    payload tier.

    A [Flat.t] is a C-layout [Bigarray.Array1] window: storage lives
    outside the OCaml heap (never scanned by the GC), {!sub_view} is an
    O(1) copy-free window onto the same storage. This is the host-kernel
    tier ({!Flat_exec}); SPMD programs exchange plain [float array]s,
    which OCaml already stores unboxed.

    Views alias: mutating a view mutates the base. The skeleton-level
    discipline is the same as [Par_array]'s [unsafe_*] contract — once a
    view has been handed off (sent, partitioned copy-free), the holder of
    the base must not mutate the overlapping window until a synchronising
    exchange with the receiver. *)

type ('a, 'b) t = ('a, 'b, Bigarray.c_layout) Bigarray.Array1.t

type float1 = (float, Bigarray.float64_elt) t
(** Unboxed 64-bit float vector — the numeric-workload payload type. *)

val float64 : (float, Bigarray.float64_elt) Bigarray.kind
val int : (int, Bigarray.int_elt) Bigarray.kind

val create : ('a, 'b) Bigarray.kind -> int -> ('a, 'b) t
(** Uninitialised storage. @raise Invalid_argument on negative length. *)

val make : ('a, 'b) Bigarray.kind -> int -> 'a -> ('a, 'b) t
val init : ('a, 'b) Bigarray.kind -> int -> (int -> 'a) -> ('a, 'b) t
val length : ('a, 'b) t -> int
val get : ('a, 'b) t -> int -> 'a
val set : ('a, 'b) t -> int -> 'a -> unit
val fill : ('a, 'b) t -> 'a -> unit
val kind : ('a, 'b) t -> ('a, 'b) Bigarray.kind

val sub_view : ('a, 'b) t -> pos:int -> len:int -> ('a, 'b) t
(** O(1) zero-copy window sharing storage with the source. *)

val blit : src:('a, 'b) t -> dst:('a, 'b) t -> unit
val copy : ('a, 'b) t -> ('a, 'b) t

val of_array : ('a, 'b) Bigarray.kind -> 'a array -> ('a, 'b) t
val to_array : ('a, 'b) t -> 'a array

val of_float_array : float array -> float1
(** Monomorphic float64 copy: allocates no boxed float. *)

val to_float_array : float1 -> float array
(** Monomorphic float64 copy: allocates no boxed float. *)

val equal : ('a, 'b) t -> ('a, 'b) t -> bool

(** {1 Partitioning}

    Closed-form counterparts of {!Partition.apply}/[unapply], sharing the
    same fast-path discipline: Block parts are O(1) copy-free sub-views,
    Cyclic/Block_cyclic are single-pass strided copies, Custom falls back
    to the generic assign-driven pass. The boxed [Partition] paths are the
    executable specification these are property-tested against. *)

val apply : Partition.t -> ('a, 'b) t -> ('a, 'b) t array
(** Split into parts. Block parts are views of the input (shared
    storage). *)

val unapply : Partition.t -> ('a, 'b) t array -> kind:('a, 'b) Bigarray.kind -> ('a, 'b) t
(** Exact inverse of {!apply}; always a fresh array. [~kind] seeds the
    output so empty inputs need no witness element.
    @raise Invalid_argument if part sizes are inconsistent. *)

val apply_generic : Partition.t -> ('a, 'b) t -> ('a, 'b) t array
(** Assign-driven specification path (exposed for property tests). *)

val unapply_generic :
  Partition.t -> ('a, 'b) t array -> kind:('a, 'b) Bigarray.kind -> ('a, 'b) t
