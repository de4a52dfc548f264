(** Jacobi relaxation for the 1-D Poisson problem −u″ = f with Dirichlet
    boundaries — the [iterUntil] skeleton's workload: iterate a stencil
    until the update norm drops below a tolerance. *)

open Machine

type result = { solution : float array; iterations : int; final_diff : float }

val solve_seq :
  ?tol:float -> ?max_iter:int -> float array -> left:float -> right:float -> result
(** Sequential reference. Defaults: [tol = 1e-8], [max_iter = 100000]. *)

val solve_scl :
  ?exec:Scl.Exec.t ->
  ?parts:int ->
  ?tol:float ->
  ?max_iter:int ->
  float array ->
  left:float ->
  right:float ->
  result
(** Host-SCL rendering: chunked ParArray, halo exchange via [rotate],
    convergence via [fold max], control via [iter_until]. Iteration counts
    match {!solve_seq} exactly. *)

val solve_multicore :
  ?domains:int ->
  ?tol:float ->
  ?max_iter:int ->
  procs:int ->
  float array ->
  left:float ->
  right:float ->
  result * Multicore.stats
(** The same SPMD program on real OCaml 5 domains; the solution and
    iteration count are identical to {!solve_sim}. *)

val solve_sim :
  ?cost:Cost_model.t ->
  ?trace:Trace.t ->
  ?tol:float ->
  ?max_iter:int ->
  procs:int ->
  float array ->
  left:float ->
  right:float ->
  result * Sim.stats
(** Simulator rendering: neighbour halo messages per sweep plus an
    allreduce of the residual — the latency-bound regime. *)
