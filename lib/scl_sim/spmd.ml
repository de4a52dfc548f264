(* The one runner for SPMD skeleton programs: the same
   [Comm.t -> 'a option] program body runs on the simulated machine, on
   real OCaml 5 domains, or on real forked OS processes, chosen by a typed
   backend that also fixes the stats type of the run. *)

open Machine

type _ backend =
  | Sim : {
      cost : Cost_model.t;
      topology : Topology.t option;
      trace : Trace.t option;
    }
      -> Sim.stats backend
  | Multicore : { domains : int option } -> Multicore.stats backend
  | Procs : Procs.stats backend

let sim ?(cost = Cost_model.ap1000) ?topology ?trace () = Sim { cost; topology; trace }
let multicore ?domains () = Multicore { domains }

let name : type s. s backend -> string = function
  | Sim _ -> "sim"
  | Multicore _ -> "multicore"
  | Procs -> "procs"

(* Observability: the simulator itself records messages/bytes/barriers and
   the simulated makespan (see Machine.Sim), and the multicore fabric its
   own mc.* counters.  Here we add the host side of the "simulated vs wall"
   comparison: a span for the wall-clock cost of running each SPMD program,
   and the aggregate simulated seconds, both under spmd.* names. *)
let obs_runs = Obs.Counter.make "spmd.runs"
let obs_mc_runs = Obs.Counter.make "spmd.multicore_runs"
let obs_procs_runs = Obs.Counter.make "spmd.procs_runs"
let obs_wall = Obs.Span.make "spmd.run_wall"
let obs_sim_us = Obs.Histogram.make ~unit_:"us" "spmd.sim_makespan_us"

(* With [?chaos], each rank's engine is wrapped in the fault injector
   before the communicator is built — the program body is untouched, which
   is the whole point (coordination-layer faults, not user-code faults). *)
let with_chaos chaos program eng =
  match chaos with
  | None -> program (Comm.world eng)
  | Some spec -> Chaos.run spec (fun e -> program (Comm.world e)) eng

(* The collect rule, the same on every engine: the lowest rank's [Some]. *)
let lowest results =
  match Array.find_map Fun.id results with
  | Some v -> v
  | None -> invalid_arg "Spmd.run: no rank returned a value"

let run (type a s) ?chaos ?topology (backend : s backend) ~procs (program : Comm.t -> a option)
    : a * s =
  Obs.Span.timed obs_wall (fun () : (a * s) ->
      let topology = match topology with Some t -> t | None -> Topology.default procs in
      (* in-process engines: each rank writes only its own slot, and every
         rank has finished (domains joined) before [lowest] reads them *)
      let in_process run_each =
        let results = Array.make (max procs 0) None in
        let stats = run_each (fun rank eng -> results.(rank) <- with_chaos chaos program eng) in
        (lowest results, stats)
      in
      match backend with
      | Sim { cost; topology = priced; trace } ->
          let topology = Option.value priced ~default:topology in
          let ((_, stats) as r) =
            in_process (fun keep ->
                Sim.run_each ?trace { Sim.procs; topology; cost } (fun rank ctx ->
                    keep rank (Engine.of_sim ctx)))
          in
          if Obs.enabled () then begin
            Obs.Counter.incr obs_runs;
            Obs.Histogram.record obs_sim_us (int_of_float (stats.Sim.makespan *. 1e6))
          end;
          r
      | Multicore { domains } ->
          if Obs.enabled () then Obs.Counter.incr obs_mc_runs;
          in_process (fun keep -> Multicore.run_each ?domains ~topology ~procs keep)
      | Procs ->
          if Obs.enabled () then Obs.Counter.incr obs_procs_runs;
          (* the chaos wrapper and the program run inside each child; a
             result crosses back to the parent marshalled *)
          let marshal v =
            try Marshal.to_bytes v []
            with Invalid_argument msg | Failure msg ->
              raise
                (Fault.Unserializable
                   (Printf.sprintf "Spmd.run: result cannot cross a process boundary (%s)" msg))
          in
          let bytes, stats =
            Procs.run_core ~topology ~procs (fun _rank eng ->
                Option.map marshal (with_chaos chaos program eng))
          in
          ((Marshal.from_bytes (lowest bytes) 0 : a), stats))
