(** Run SPMD skeleton programs — the one runner.

    A program is a [Comm.t -> 'a option] body. {!run} executes it on every
    rank of the engine a typed {!backend} names: the deterministic
    simulated machine, real OCaml 5 domains, or real forked OS processes.
    The body is the same on all three; the backend fixes the stats type,
    because the engines measure different things (simulated seconds and
    bytes on the simulator, wall clock on the others).

    {b Collect rule.} The run's value is the value of the lowest rank
    that returns [Some], whatever the engine and whatever order the ranks
    finish in. If no rank does, {!run} raises [Invalid_argument]. Programs
    without a result return [Some ()].

    {b Fork note.} The {!Procs} backend forks, and OCaml 5 refuses
    [Unix.fork] for good once a process has created a second domain. Run
    procs work only in a process that has never spawned a domain — before
    any {!multicore} run or [Runtime.Pool] (see {!Machine.Procs}). *)

open Machine

type _ backend =
  | Sim : {
      cost : Cost_model.t;
      topology : Topology.t option;
          (** prices the hops; overrides the program's [?topology] *)
      trace : Trace.t option;  (** records events and [Comm.note]s *)
    }
      -> Sim.stats backend
      (** The discrete-event simulator: deterministic, [Comm.work] charges
          simulated time. *)
  | Multicore : { domains : int option } -> Multicore.stats backend
      (** Each rank a fiber on an OCaml domain (ranks beyond [domains]
          are multiplexed); zero-copy messages, [Comm.work] a no-op. *)
  | Procs : Procs.stats backend
      (** Each rank a forked process; messages and the result cross Unix
          sockets by [Marshal], and a dead process is a real
          {!Fault.Crashed}. *)

val sim : ?cost:Cost_model.t -> ?topology:Topology.t -> ?trace:Trace.t -> unit -> Sim.stats backend
(** The simulator backend; the cost model defaults to the AP1000
    calibration. *)

val multicore : ?domains:int -> unit -> Multicore.stats backend
(** The multicore backend; [domains] defaults to
    {!Machine.Multicore.default_domains}. *)

val name : _ backend -> string
(** ["sim"], ["multicore"] or ["procs"]. *)

val run :
  ?chaos:Chaos.spec ->
  ?topology:Topology.t ->
  's backend ->
  procs:int ->
  (Comm.t -> 'a option) ->
  'a * 's
(** [run backend ~procs program] runs [program] on [procs] ranks, each
    with a world communicator, and returns the collected value (see the
    collect rule above) with the engine's stats. [?topology] is the
    program's machine shape (default {!Machine.Topology.default}); only
    the simulator prices it, and a topology in the {!Sim} backend takes
    precedence. With [?chaos], each rank's engine is wrapped in the fault
    injector ({!Machine.Chaos}) before the communicator is built — the
    program body is untouched; on procs the wrapper runs inside each
    child.
    @raise Invalid_argument naming [Spmd.run] if no rank returns [Some].
    @raise Fault.Unserializable on procs if the result cannot be
    marshalled. *)
