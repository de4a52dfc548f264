(** The skeleton-program AST of the paper's Section 4: a point-free
    pipeline language whose nodes are SCL skeletons, with a reference
    interpreter that transformation rules are verified against. *)

type expr =
  | Id
  | Compose of expr * expr  (** [Compose (f, g)]: apply [g] first *)
  | Map of Fn.t
  | Imap of Fn.t2
  | Fold of Fn.t2
  | Scan of Fn.t2
  | Foldr_compose of Fn.t2 * Fn.t
      (** [foldr (f ∘ g)] — the sequential source pattern of the
          map-distribution rule *)
  | Send of Fn.ifn  (** permutation send *)
  | Fetch of Fn.ifn
  | Rotate of int
  | Split of int
      (** block-split into p groups, on {!Scl.Partition.block_bounds}
          (the executors' segment descriptors share it) *)
  | Combine  (** flatten a nested ParArray *)
  | Map_nested of expr  (** apply a program inside each group *)
  | Iter_for of int * expr

val pp : Format.formatter -> expr -> unit
val to_string : expr -> string

val to_chain : expr -> expr list
(** Stages in application order (first stage first); flattens [Compose] and
    drops [Id]. *)

val of_chain : expr list -> expr
(** Rebuild; [of_chain []] is [Id]. Preserves meaning:
    [eval (of_chain (to_chain e)) = eval e]. *)

val size : expr -> int

val eval : expr -> Value.t -> Value.t
(** Reference interpreter.
    @raise Value.Type_error on ill-typed applications, empty folds,
    out-of-range movements, or non-permutation sends. *)
