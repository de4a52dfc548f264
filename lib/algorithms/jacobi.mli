(** Jacobi relaxation for the 1-D Poisson problem −u″ = f with Dirichlet
    boundaries — the [iterUntil] skeleton's workload: iterate a stencil
    until the update norm drops below a tolerance. *)


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

val solve :
  ?tol:float ->
  ?max_iter:int ->
  's Scl_sim.Spmd.backend ->
  procs:int ->
  float array ->
  left:float ->
  right:float ->
  result * 's
(** The SPMD rendering on any engine: neighbour halo messages per sweep
    plus an allreduce of the residual — the latency-bound regime on the
    simulator. Solution and iteration count are identical on every
    engine. *)
