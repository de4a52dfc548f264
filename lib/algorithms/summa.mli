(** SUMMA matrix multiplication on any SPMD engine: q rounds of
    row/column block broadcasts in grid sub-communicators — the
    processor-group (nested ParArray) counterpart to Cannon's neighbour
    shifts. *)

val multiply :
  's Scl_sim.Spmd.backend ->
  grid:int ->
  float array array ->
  float array array ->
  float array array * 's
(** C = A·B on a grid×grid torus, on any engine; the product is
    identical on every engine.
    @raise Invalid_argument unless both matrices are n×n with [grid]
    dividing n. *)
