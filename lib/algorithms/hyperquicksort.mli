(** Hyperquicksort (paper Section 3, second example; evaluation Section 5)
    in three renderings whose outputs are identical:

    - {!sort_recursive}: the Section 3 divide-and-conquer SCL program
      (nested parallelism via split/combine, applybrdcast pivot spread,
      fetch exchange);
    - {!sort_flat}: the Section 5 flattened iterative SPMD program — the
      output of the flattening transformation;
    - {!sort_sim}: the simulator rendering that regenerates Table 1 and
      Figure 3 on the AP1000 cost model.

    Robustness beyond the paper: when a group leader is empty the pivot
    comes from the first non-empty member; an entirely empty group skips
    its exchange. *)

open Machine

val sort_recursive : ?exec:Scl.Exec.t -> dims:int -> int array -> int array
(** Sort on a [2^dims]-processor virtual hypercube (host execution).
    @raise Invalid_argument on negative [dims]. *)

val sort_flat : ?exec:Scl.Exec.t -> dims:int -> int array -> int array
(** The flattened iterative form; extensionally equal to
    {!sort_recursive}. *)

val sort_sim :
  ?cost:Cost_model.t ->
  ?trace:Trace.t ->
  ?topology:Topology.t ->
  procs:int ->
  int array ->
  int array * Sim.stats
(** Simulated distributed-memory run; [procs] must be a power of two (the
    algorithm's exchange pattern is a hypercube; [topology] — default
    [Hypercube] — only reprices the hops, e.g. when embedding the cube in a
    physical mesh or torus). Default cost model: AP1000. *)

val sort_multicore :
  ?domains:int -> procs:int -> int array -> int array * Multicore.stats
(** The same SPMD program body as {!sort_sim}, executed for real on OCaml 5
    domains ([Machine.Multicore]): identical output, wall-clock stats.
    [procs] must be a power of two. *)

val sort_procs : procs:int -> int array -> int array * Procs.stats
(** The same SPMD program body on real OS processes ([Machine.Procs]):
    forked ranks, marshalled exchanges over Unix-domain sockets,
    identical output to both other engines. [procs] must be a power of
    two. *)

val sort_sim_traced :
  ?cost:Cost_model.t -> procs:int -> int array -> int array * Sim.stats * (float * int * string) list
(** Like {!sort_sim} with per-stage trace notes — regenerates the paper's
    Figure 2. *)
