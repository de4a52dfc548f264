(* Execution-engine vtable for SPMD programs.

   The paper's point (and Haskell#'s) is that the coordination layer should
   be retargetable: the same skeleton program must run on different
   execution media without touching the computation code.  [Comm] therefore
   writes its collectives once against this record of primitives, and each
   engine — the discrete-event simulator ([of_sim]) and the real-domain
   multicore fabric ([Multicore.engine]) — supplies its own implementation.

   A record of explicitly-polymorphic closures is used instead of a functor
   so that programs keep the plain value type [Comm.t -> 'a option] and a
   single compiled program body can be handed to either engine at runtime.

   Semantics every engine must provide:
   - [send] is asynchronous and never blocks; [recv] blocks until a message
     with the exact (src, tag) is available, FIFO per (source, tag) —
     MPI's non-overtaking rule.
   - [recv_any] takes the oldest available message (any source) matching
     the optional tag; engines may resolve ties differently (the simulator
     is deterministic, real hardware is not).
   - [recv]/[recv_any] with [?timeout] raise [Fault.Timeout] once the
     deadline (engine-clock seconds from the call) elapses with no matching
     message — a local, recoverable condition, unlike the engines' global
     [Deadlock].
   - [work d] charges [d] seconds of compute: simulated time on the
     simulator, a no-op on engines where computation costs real time.
   - [sleep d] idles for [d] engine-clock seconds: the rank's clock
     advances but no compute is charged (simulated work_times and the
     imbalance diagnostics are untouched); on real engines it is an actual
     sleep.  Long-lived programs (pacing an arrival process, a departed
     worker waiting to rejoin) need idling that both engines price in
     their own clock — [work] cannot express it because it is free on
     real engines and counts as compute on the simulator.
   - [time ()] is the engine's own clock: simulated seconds on the
     simulator, wall-clock seconds since the run started on real engines.
     [real_time] says which: fault injectors (Chaos) use it to decide
     whether a straggler stall must burn wall time or simulated time. *)

type t = {
  rank : int;
  size : int;
  cost : Cost_model.t;
  topology : Topology.t;
  real_time : bool;
  send : 'a. dest:int -> tag:int -> 'a -> unit;
  recv : 'a. ?timeout:float -> src:int -> tag:int -> unit -> 'a;
  recv_any : 'a. ?timeout:float -> ?tag:int -> unit -> int * 'a;
  work : float -> unit;
  sleep : float -> unit;
  time : unit -> float;
  note : string -> unit;
}

let work_flops t n = t.work (Cost_model.flops t.cost n)

let of_sim (ctx : Sim.ctx) : t =
  {
    rank = Sim.rank ctx;
    size = Sim.size ctx;
    cost = Sim.cost ctx;
    topology = Sim.topology ctx;
    real_time = false;
    send = (fun ~dest ~tag v -> Sim.send ctx ~dest ~tag v);
    recv = (fun ?timeout ~src ~tag () -> Sim.recv ctx ~src ~tag ?timeout ());
    recv_any = (fun ?timeout ?tag () -> Sim.recv_any ctx ?tag ?timeout ());
    work = (fun d -> Sim.work ctx d);
    sleep = (fun d -> Sim.sleep ctx d);
    time = (fun () -> Sim.time ctx);
    note = (fun msg -> Sim.note ctx msg);
  }
