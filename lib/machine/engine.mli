(** Execution-engine vtable: the primitives an SPMD program (and the
    [Comm] collectives) may use, abstracted over the execution medium.

    Instances: {!of_sim} (discrete-event simulator, [work] charges
    simulated time), [Multicore] (OCaml domains, zero-copy shared-memory
    messaging, [work] is a no-op) and [Procs] (forked processes,
    marshalled frames); [Chaos] wraps any of them. Programs written
    against [Comm.t] run unchanged on all of them. *)

type t = {
  rank : int;  (** this virtual processor's machine-global rank *)
  size : int;  (** total number of virtual processors *)
  cost : Cost_model.t;  (** machine calibration (meaningful on the simulator) *)
  topology : Topology.t;
  real_time : bool;
      (** [true] when [work]/[time] are wall-clock (multicore engine),
          [false] when simulated. Chaos uses this to pick how a straggler
          stall is charged. *)
  send : 'a. dest:int -> tag:int -> 'a -> unit;
      (** Asynchronous tagged send; never blocks. *)
  recv : 'a. ?timeout:float -> src:int -> tag:int -> unit -> 'a;
      (** Blocking receive; FIFO per (source, tag). The result type is fixed
          by the caller: sender and receiver must agree (same discipline as
          [Sim.recv]). With [?timeout] (engine-clock seconds), raises
          {!Fault.Timeout} if no matching message is available in time. *)
  recv_any : 'a. ?timeout:float -> ?tag:int -> unit -> int * 'a;
      (** Blocking receive from any source; returns (source rank, value).
          Deterministic only on the simulator. [?timeout] as in [recv]. *)
  work : float -> unit;  (** Charge compute seconds (no-op on real engines). *)
  sleep : float -> unit;
      (** Idle for [d] engine-clock seconds: the clock advances but no
          compute is charged — simulated [work_times] (and the imbalance
          diagnostics built on them) are untouched; a real sleep on the
          multicore engine. For pacing arrival processes and membership
          away-time in long-lived programs. *)
  time : unit -> float;  (** Engine clock: simulated or wall seconds. *)
  note : string -> unit;  (** Trace annotation (no-op on real engines). *)
}

val work_flops : t -> int -> unit
(** [work_flops t n] charges [n] floating-point operations via the engine's
    cost model. *)

val of_sim : Sim.ctx -> t
(** The simulator engine: primitives delegate to [Sim] and charge
    simulated time. *)
