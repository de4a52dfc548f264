(** Conjugate gradients for the 1-D Laplacian system (SPD tridiagonal) —
    the reduction-heavy iterative solver: two allreduced dot products
    (fold) plus a neighbour stencil (matvec) per iteration. *)


type result = { solution : float array; iterations : int; residual_norm : float }

val solve_seq : ?tol:float -> ?max_iter:int -> float array -> result
(** Sequential reference; stops when ‖r‖₂ < tol. *)

val solve_scl : ?exec:Scl.Exec.t -> ?tol:float -> ?max_iter:int -> float array -> result
(** Host-SCL rendering (dot = zip_with + fold, matvec = imap); iteration
    counts match {!solve_seq}. *)

val solve :
  ?tol:float -> ?max_iter:int -> 's Scl_sim.Spmd.backend -> procs:int -> float array -> result * 's
(** The SPMD rendering on any engine; identical solution and iteration
    count on every engine. *)

val laplacian_matvec : float array -> float array
val residual_inf : float array -> float array -> float
(** max |A x − b| for the Laplacian system. *)
