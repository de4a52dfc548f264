(* Hyperquicksort on a 2-cube with a stage-by-stage trace — regenerates the
   paper's Figure 2 (32 values sorted on 4 processors, showing the local
   quicksort, the pivot broadcasts, and the exchange-merge rounds).

   Run with:  dune exec examples/hypersort_demo.exe
   Pass [--chrome FILE] to also export the trace as Chrome trace_event JSON
   (open in chrome://tracing or https://ui.perfetto.dev).
   Pass [--engine multicore] to run the same SPMD program on real OCaml 5
   domains instead of the simulator: identical sorted output, wall-clock
   stats instead of a simulated makespan.
   Pass [--engine procs] to run it on real forked OS processes talking
   over Unix-domain sockets (Machine.Procs): same output again, plus the
   message totals the socket fabric counted. *)

let chrome_out =
  let rec find = function
    | "--chrome" :: path :: _ -> Some path
    | _ :: rest -> find rest
    | [] -> None
  in
  find (Array.to_list Sys.argv)

let engine =
  let rec find = function
    | "--engine" :: e :: _ -> e
    | _ :: rest -> find rest
    | [] -> "sim"
  in
  find (Array.to_list Sys.argv)

let show a = String.concat " " (Array.to_list (Array.map string_of_int a))

(* One program, three engines: [--engine] only picks the backend; the
   stats type (and so the report) follows from it. *)
let run (type s) (backend : s Scl_sim.Spmd.backend) =
  let rng = Runtime.Xoshiro.of_seed 1995 in
  let data = Runtime.Xoshiro.int_array rng ~len:32 ~bound:100 in
  Format.printf "=== Hyperquicksort on %s ===@.@."
    (match backend with
    | Scl_sim.Spmd.Sim _ -> "a 2-dimensional hypercube (Figure 2)"
    | Scl_sim.Spmd.Multicore _ -> "4 real OCaml domains (multicore engine)"
    | Scl_sim.Spmd.Procs -> "4 forked OS processes (procs engine)");
  Format.printf "unsorted input on rank 0:@.  [%s]@.@." (show data);
  let sorted, (stats : s) = Algorithms.Hyperquicksort.sort backend ~procs:4 data in
  (match backend with
  | Scl_sim.Spmd.Sim { trace = Some trace; _ } ->
      let last_proc = ref (-1) in
      List.iter
        (fun (time, proc, msg) ->
          if proc <> !last_proc then Format.printf "@.";
          last_proc := proc;
          Format.printf "[t=%8.6fs] p%d  %s@." time proc msg)
        (Machine.Trace.notes trace);
      Format.printf "@."
  | _ -> ());
  Format.printf "sorted result gathered on rank 0:@.  [%s]@.@." (show sorted);
  (match backend with
  | Scl_sim.Spmd.Sim { trace; _ } -> (
      Format.printf "simulated makespan: %.6f s on the AP1000 cost model@."
        stats.Machine.Sim.makespan;
      Format.printf "messages: %d (%d bytes), barrier-free (pairwise exchanges only)@."
        stats.Machine.Sim.total_msgs stats.Machine.Sim.total_bytes;
      match trace with
      | Some trace -> (
          Format.printf "@.timeline:@.%a@.@." (Machine.Trace.pp_gantt ~width:72) trace;
          match chrome_out with
          | Some path ->
              Machine.Trace.write_chrome path trace;
              Format.printf "chrome trace written to %s (load in chrome://tracing or Perfetto)@.@."
                path
          | None -> ())
      | None -> ())
  | Scl_sim.Spmd.Multicore _ ->
      Format.printf "wall clock: %.6f s on %d domain(s); %d messages, %d sleeps@."
        stats.Machine.Multicore.wall stats.Machine.Multicore.domains_used
        stats.Machine.Multicore.total_msgs stats.Machine.Multicore.sleeps
  | Scl_sim.Spmd.Procs ->
      Format.printf "wall clock: %.6f s on %d process(es); %d messages over the sockets@."
        stats.Machine.Procs.wall stats.Machine.Procs.procs_used stats.Machine.Procs.total_msgs);
  let check = Array.copy data in
  Array.sort compare check;
  assert (sorted = check);
  Format.printf "verified against sequential sort. ok.@."

let () =
  match engine with
  | "sim" -> run (Scl_sim.Spmd.sim ~trace:(Machine.Trace.create ()) ())
  | "multicore" -> run (Scl_sim.Spmd.multicore ())
  | "procs" -> run Scl_sim.Spmd.Procs
  | other ->
      Format.eprintf "unknown --engine %S (expected sim, multicore or procs)@." other;
      exit 2
