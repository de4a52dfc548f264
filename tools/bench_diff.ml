(* Compare two bench JSON artifacts (schema scl-bench/1, produced by
   `dune exec bench/main.exe -- --json FILE`).

   Usage:
     bench_diff BASELINE.json CANDIDATE.json
       [--threshold 0.25] [--warn-only] [--sim-strict]

   Exit codes:
     0  no regression beyond the threshold (or --warn-only)
     1  at least one benchmark regressed beyond the threshold, or any
        simulated entry drifted at all under --sim-strict
     2  usage or parse error

   Host wall-clock benchmarks are noisy on shared CI runners, which is why
   the default threshold is a generous 25% on medians and why CI starts
   warn-only; simulated benchmarks are deterministic, so any drift there
   beyond float noise is a real behavioural change.  [--sim-strict] turns
   that observation into a gate: sim-backend entries are compared bitwise
   (timings, shape and counters; removals and unexplained additions count
   too) and any violation fails the run even under --warn-only. *)

let usage =
  "bench_diff BASELINE.json CANDIDATE.json [--threshold FRACTION] [--warn-only] [--sim-strict]"

let () =
  let threshold = ref 0.25 in
  let warn_only = ref false in
  let sim_strict = ref false in
  let positional = ref [] in
  let spec =
    [
      ( "--threshold",
        Arg.Set_float threshold,
        "FRACTION tolerated relative slowdown of the median (default 0.25)" );
      ("--warn-only", Arg.Set warn_only, " report regressions but always exit 0");
      ( "--sim-strict",
        Arg.Set sim_strict,
        " hard-fail on any bitwise drift in sim-backend entries (overrides --warn-only)" );
    ]
  in
  (try Arg.parse spec (fun a -> positional := a :: !positional) usage
   with _ -> exit 2);
  let baseline_path, candidate_path =
    match List.rev !positional with
    | [ a; b ] -> (a, b)
    | _ ->
        prerr_endline usage;
        exit 2
  in
  let load path =
    match Obs.Artifact.load path with
    | Ok f -> f
    | Error e ->
        Printf.eprintf "bench_diff: %s\n" e;
        exit 2
  in
  let baseline = load baseline_path in
  let candidate = load candidate_path in
  let comparisons, missing, added =
    Obs.Artifact.compare_files ~threshold:!threshold ~baseline ~candidate ()
  in
  Printf.printf "bench_diff: %s -> %s (threshold %.0f%%)\n" baseline_path candidate_path
    (100.0 *. !threshold);
  Printf.printf "  %-28s %12s %12s %8s  %s\n" "benchmark" "old (s)" "new (s)" "ratio" "verdict";
  List.iter
    (fun (c : Obs.Artifact.comparison) ->
      Printf.printf "  %-28s %12.6f %12.6f %8.3f  %s\n" c.Obs.Artifact.bench c.Obs.Artifact.old_s
        c.Obs.Artifact.new_s c.Obs.Artifact.ratio
        (match c.Obs.Artifact.verdict with
        | Obs.Artifact.Regression -> "REGRESSION"
        | Obs.Artifact.Improvement -> "improvement"
        | Obs.Artifact.Unchanged -> "ok"))
    comparisons;
  (* Removed/added benchmarks are part of the diff, not a footnote: name
     them with their backend so a vanished sim entry is recognisably a
     behavioural change and not runner noise. *)
  let backend_of (f : Obs.Artifact.file) name =
    match List.find_opt (fun (r : Obs.Artifact.result) -> r.name = name) f.results with
    | Some r -> r.backend
    | None -> "?"
  in
  List.iter
    (fun name -> Printf.printf "  removed (was backend %s): %s\n" (backend_of baseline name) name)
    missing;
  List.iter
    (fun name -> Printf.printf "  added (backend %s): %s\n" (backend_of candidate name) name)
    added;
  let n_reg =
    List.length (List.filter (fun c -> c.Obs.Artifact.verdict = Obs.Artifact.Regression) comparisons)
  in
  if comparisons = [] then Printf.printf "  (no benchmarks in common)\n";
  (* Throughput comparison: benchmarks that export a bytes/sec counter
     (any "*.bytes_per_s" — today the flat host kernels'
     [flat.bytes_per_s]) get a second table in bandwidth terms — the
     natural axis where wall-clock medians conflate overhead with volume.
     Host throughput is as noisy as host wall-clock, so this table is
     always informational (warn-only); sim-backend counters are already
     compared bitwise by --sim-strict above. *)
  let bps_of (r : Obs.Artifact.result) =
    List.find_map
      (fun (k, v) -> if String.ends_with ~suffix:".bytes_per_s" k && v > 0.0 then Some v else None)
      r.Obs.Artifact.counters
  in
  let throughput =
    List.filter_map
      (fun (b : Obs.Artifact.result) ->
        match
          ( bps_of b,
            List.find_opt
              (fun (c : Obs.Artifact.result) -> c.Obs.Artifact.name = b.Obs.Artifact.name)
              candidate.Obs.Artifact.results )
        with
        | Some old_bps, Some c ->
            Option.map (fun new_bps -> (b.Obs.Artifact.name, old_bps, new_bps)) (bps_of c)
        | _ -> None)
      baseline.Obs.Artifact.results
  in
  if throughput <> [] then begin
    Printf.printf "  %-28s %12s %12s %8s  %s\n" "throughput" "old (MB/s)" "new (MB/s)" "ratio"
      "verdict";
    List.iter
      (fun (name, old_bps, new_bps) ->
        let ratio = old_bps /. new_bps in
        Printf.printf "  %-28s %12.1f %12.1f %8.3f  %s\n" name (old_bps /. 1e6) (new_bps /. 1e6)
          ratio
          (if ratio > 1.0 +. !threshold then "SLOWER [warn-only]"
           else if ratio < 1.0 -. !threshold then "faster"
           else "ok"))
      throughput
  end;
  let strict_failed =
    !sim_strict
    &&
    let violations = Obs.Artifact.strict_sim_violations ~baseline ~candidate in
    List.iter
      (fun (v : Obs.Artifact.strict_violation) ->
        Printf.printf "  SIM-STRICT %-28s %s\n" v.sv_bench v.sv_reason)
      violations;
    match violations with
    | [] ->
        Printf.printf "sim-strict: all simulated entries bitwise-identical.\n";
        false
    | vs ->
        Printf.printf "sim-strict: %d violation(s) — simulated runs are deterministic, so this \
                       is a real behavioural change (refresh the baseline if intended).\n"
          (List.length vs);
        true
  in
  if n_reg > 0 then
    Printf.printf "%d regression(s) beyond %.0f%%%s\n" n_reg (100.0 *. !threshold)
      (if !warn_only then " [warn-only: exiting 0]" else "")
  else Printf.printf "no regressions.\n";
  if strict_failed || (n_reg > 0 && not !warn_only) then exit 1
