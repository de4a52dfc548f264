(** Hyperquicksort (paper Section 3, second example; evaluation Section 5)
    in three renderings whose outputs are identical:

    - {!sort_recursive}: the Section 3 divide-and-conquer SCL program
      (nested parallelism via split/combine, applybrdcast pivot spread,
      fetch exchange);
    - {!sort_flat}: the Section 5 flattened iterative SPMD program — the
      output of the flattening transformation;
    - {!sort}: the SPMD program on any engine; on the simulator it
      regenerates Table 1 and Figure 3 on the AP1000 cost model, and its
      [Comm.note]s (read with [Machine.Trace.notes]) the Figure 2 trace.

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

val sort : 's Scl_sim.Spmd.backend -> procs:int -> int array -> int array * 's
(** The SPMD program on any engine, with identical output on every one;
    [procs] must be a power of two. The exchange pattern is a hypercube,
    which is the default topology; a topology in a [Scl_sim.Spmd.sim]
    backend only reprices the hops (e.g. when embedding the cube in a
    physical mesh or torus). With a trace in the sim backend, each stage
    leaves a note — the paper's Figure 2. *)

val sort_multicore : ?domains:int -> procs:int -> int array -> int array * Multicore.stats
(** [sort (Scl_sim.Spmd.multicore ?domains ())]; kept with this signature
    because the repository benchmark calls it. *)
