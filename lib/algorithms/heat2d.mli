(** 2-D Poisson (−Δu = f, zero Dirichlet boundary) by Jacobi relaxation —
    the 2-D stencil workload: [row_col_block] partitioning with
    [rotate_row]/[rotate_col] halo movement on the host, and Dmat halo
    exchange on the simulated torus. *)


type result = { solution : float array array; iterations : int; final_diff : float }

val solve_seq : ?tol:float -> ?max_iter:int -> float array array -> result
(** Sequential reference on the n×n interior grid. *)

val solve_scl :
  ?exec:Scl.Exec.t -> ?grid:int -> ?tol:float -> ?max_iter:int -> float array array -> result
(** Host-SCL rendering on a [grid × grid] block decomposition; iteration
    counts match {!solve_seq} exactly.
    @raise Invalid_argument unless [grid] divides the dimension. *)

val solve :
  ?tol:float ->
  ?max_iter:int ->
  's Scl_sim.Spmd.backend ->
  procs:int ->
  float array array ->
  result * 's
(** The SPMD rendering on any engine ([procs] must be a perfect square
    whose side divides the dimension): halo exchange + stencil sweep +
    allreduce per iteration. Identical solution and iteration count on
    every engine. *)

val manufactured_f : int -> float array array
(** f = 2π² sin(πx) sin(πy), whose exact solution is
    {!manufactured_u}. *)

val manufactured_u : int -> int -> int -> float
(** u(i,j) = sin(πx_i) sin(πy_j). *)
