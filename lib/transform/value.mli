(** The value universe of the skeleton-program interpreter. *)

type t =
  | Int of int
  | Float of float
  | Pair of t * t
  | Arr of t array  (** both ParArrays and nested group arrays *)

exception Type_error of string

val type_error : ('a, unit, string, 'b) format4 -> 'a
(** Raise {!Type_error} with a formatted message. *)

val as_arr : t -> t array
val as_int : t -> int
val as_float : t -> float
val as_pair : t -> t * t
val of_int_array : int array -> t
val to_int_array : t -> int array

val equal : t -> t -> bool
(** Structural, with relative tolerance on floats. *)

val bitwise_equal : t -> t -> bool
(** Structural and exact: floats compare by bit pattern, so [0.0] and
    [-0.0] differ and a NaN equals only the same NaN. *)

val depth : t -> int
(** Nesting depth (0 for scalars). *)

val pp : Format.formatter -> t -> unit
