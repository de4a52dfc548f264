(** Conjugate gradients for the 1-D Laplacian system (SPD tridiagonal) —
    the reduction-heavy iterative solver: two allreduced dot products
    (fold) plus a neighbour stencil (matvec) per iteration. *)

open Machine

type result = { solution : float array; iterations : int; residual_norm : float }

val solve_seq : ?tol:float -> ?max_iter:int -> float array -> result
(** Sequential reference; stops when ‖r‖₂ < tol. *)

val solve_scl : ?exec:Scl.Exec.t -> ?tol:float -> ?max_iter:int -> float array -> result
(** Host-SCL rendering (dot = zip_with + fold, matvec = imap); iteration
    counts match {!solve_seq}. *)

val solve_sim :
  ?cost:Cost_model.t ->
  ?trace:Trace.t ->
  ?tol:float ->
  ?max_iter:int ->
  procs:int ->
  float array ->
  result * Sim.stats

val solve_multicore :
  ?domains:int -> ?tol:float -> ?max_iter:int -> procs:int -> float array -> result * Multicore.stats
(** The same SPMD program on real OCaml 5 domains; identical solution and
    iteration count to {!solve_sim}. *)

val laplacian_matvec : float array -> float array
val residual_inf : float array -> float array -> float
(** max |A x − b| for the Laplacian system. *)
