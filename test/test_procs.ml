(* Tests for the multi-process execution engine: the socket fabric (frame
   protocol, per-(source, tag) FIFO, marshal + raw-slice tiers), real
   crash detection (EOF without goodbye -> Fault.Crashed), the
   marshalable-payload discipline, engine equivalence of the Comm
   collectives and hyperquicksort against the simulator, and the
   crash-tolerant farm driven by real process deaths.

   This suite lives in its own executable on purpose: [Procs] forks, and
   forking an OCaml 5 process is only safe while no other domains are
   live — so nothing here (and nothing linked into this binary's test
   run) spawns domains or pools. *)

open Machine
module Spmd = Scl_sim.Spmd

let contains msg needle =
  let n = String.length needle and m = String.length msg in
  let rec go i = i + n <= m && (String.sub msg i n = needle || go (i + 1)) in
  go 0

(* Engine-level programs, collected through the one runner. *)
let collect ~procs f = Spmd.run Spmd.Procs ~procs (fun c -> f (Comm.engine c))

(* --- fabric basics ------------------------------------------------------ *)

let test_single_rank () =
  let v, stats = collect ~procs:1 (fun eng -> Some (eng.Engine.rank + 41)) in
  Alcotest.(check int) "value" 41 v;
  Alcotest.(check int) "no messages" 0 stats.Procs.total_msgs;
  Alcotest.(check int) "one process" 1 stats.Procs.procs_used;
  Alcotest.(check (list int)) "no crashes" [] stats.Procs.crashed

let test_ping_pong () =
  let v, stats =
    collect ~procs:2 (fun eng ->
        if eng.Engine.rank = 0 then begin
          eng.Engine.send ~dest:1 ~tag:5 "ping";
          let (s : string) = eng.Engine.recv ~src:1 ~tag:6 () in
          Some s
        end
        else begin
          let (s : string) = eng.Engine.recv ~src:0 ~tag:5 () in
          eng.Engine.send ~dest:0 ~tag:6 (s ^ "-pong");
          None
        end)
  in
  Alcotest.(check string) "round trip crossed two processes" "ping-pong" v;
  Alcotest.(check int) "two messages" 2 stats.Procs.total_msgs;
  Alcotest.(check int) "two receives" 2 stats.Procs.total_recvs

(* Receiving tags out of send order: the pending stash holds the earlier
   frame until it is asked for, FIFO per (source, tag). *)
let test_tag_discipline_out_of_order () =
  let v, _ =
    collect ~procs:2 (fun eng ->
        if eng.Engine.rank = 0 then begin
          eng.Engine.send ~dest:1 ~tag:1 10;
          eng.Engine.send ~dest:1 ~tag:2 20;
          None
        end
        else begin
          let (b : int) = eng.Engine.recv ~src:0 ~tag:2 () in
          let (a : int) = eng.Engine.recv ~src:0 ~tag:1 () in
          Some (a, b)
        end)
  in
  Alcotest.(check (pair int int)) "tags matched, not arrival order" (10, 20) v

let test_self_send_rejected () =
  Alcotest.check_raises "self send"
    (Invalid_argument "Procs.send: self-send is not supported (use a local value)") (fun () ->
      ignore
        (Procs.run ~procs:2 (fun eng ->
             if eng.Engine.rank = 0 then eng.Engine.send ~dest:0 ~tag:0 ())))

let test_recv_timeout_fires () =
  (* nobody sends: the receiver must get Fault.Timeout via the select
     deadline, not hang *)
  let v, _ =
    collect ~procs:2 (fun eng ->
        if eng.Engine.rank = 1 then
          match (eng.Engine.recv ~timeout:0.05 ~src:0 ~tag:0 () : int) with
          | _ -> Some false
          | exception Fault.Timeout _ -> Some true
        else None)
  in
  Alcotest.(check bool) "Timeout raised" true v

let test_recv_timeout_in_time () =
  let v, _ =
    collect ~procs:2 (fun eng ->
        if eng.Engine.rank = 0 then begin
          eng.Engine.send ~dest:1 ~tag:0 77;
          None
        end
        else Some (eng.Engine.recv ~timeout:10.0 ~src:0 ~tag:0 () : int))
  in
  Alcotest.(check int) "delivered" 77 v

let test_deadlock_sender_finished () =
  (* waiting on a rank that finished cleanly (goodbye then EOF) is a
     protocol bug, reported as Deadlock — not Crashed *)
  (match Procs.run ~procs:2 (fun eng ->
       if eng.Engine.rank = 0 then ignore (eng.Engine.recv ~src:1 ~tag:0 () : int))
   with
  | _ -> Alcotest.fail "expected Procs.Deadlock"
  | exception Procs.Deadlock msg ->
      Alcotest.(check bool) "names the finished peer" true (contains msg "finished cleanly"));
  ()

let test_undelivered_message () =
  (* a clean finish with unconsumed inbound frames trips the same
     undelivered-message check as the other engines. The receiver sleeps
     first so the frame is guaranteed to have crossed the socket. *)
  match
    Procs.run ~procs:2 (fun eng ->
        if eng.Engine.rank = 0 then eng.Engine.send ~dest:1 ~tag:9 "orphan"
        else eng.Engine.sleep 0.3)
  with
  | _ -> Alcotest.fail "expected Procs.Deadlock (undelivered)"
  | exception Procs.Deadlock msg ->
      Alcotest.(check bool) "undelivered reported" true (contains msg "undelivered")

let test_rank_exception_propagates () =
  (* an arbitrary exception in one child crosses back to the parent with
     its rank attached *)
  match Procs.run ~procs:2 (fun eng -> if eng.Engine.rank = 1 then failwith "worker bug") with
  | _ -> Alcotest.fail "expected Failure"
  | exception Failure msg -> Alcotest.(check string) "message survives" "worker bug" msg

(* --- marshalable-payload discipline -------------------------------------- *)

let test_unserializable_closure_rejected () =
  (* in-process engines happily ship closures; here the send boundary
     must refuse with the Fault-taxonomy error, not a raw Marshal raise
     somewhere mid-protocol *)
  match
    Procs.run ~procs:2 (fun eng ->
        if eng.Engine.rank = 0 then eng.Engine.send ~dest:1 ~tag:0 (fun x -> x + 1)
        else ignore (eng.Engine.recv ~timeout:2.0 ~src:0 ~tag:0 () : int -> int))
  with
  | _ -> Alcotest.fail "expected Fault.Unserializable"
  | exception Fault.Unserializable msg ->
      Alcotest.(check bool) "send site named" true (contains msg "Procs.send");
      Alcotest.(check bool)
        "explains the boundary" true
        (contains msg "cannot cross a process boundary")

let test_unserializable_result_rejected () =
  match collect ~procs:1 (fun _eng -> Some (fun x -> x * 2)) with
  | _ -> Alcotest.fail "expected Fault.Unserializable"
  | exception Fault.Unserializable msg ->
      Alcotest.(check bool) "collect site named" true (contains msg "Spmd.run")

(* --- real crashes --------------------------------------------------------- *)

let kill_self () = Unix.kill (Unix.getpid ()) Sys.sigkill

let test_real_kill_mid_protocol_is_crashed () =
  (* SIGKILL, not a simulated raise: a surviving rank's untimed receive
     must surface Fault.Crashed when its peer's socket hits EOF without
     a goodbye *)
  match
    Spmd.run Spmd.Procs ~procs:4 (fun comm ->
        if Comm.rank comm = 2 then kill_self ();
        let s = Comm.allreduce comm ( + ) (Comm.rank comm) in
        if Comm.rank comm = 0 then Some s else None)
  with
  | _ -> Alcotest.fail "expected Fault.Crashed"
  | exception Fault.Crashed _ -> ()

let test_real_kill_timed_recv_still_times_out () =
  (* the failure-detector contract: a receive WITH a timeout never maps
     peer death to Crashed — it waits out the deadline and raises
     Timeout, which is all the farm master catches *)
  let v, stats =
    collect ~procs:2 (fun eng ->
        if eng.Engine.rank = 1 then kill_self ();
        if eng.Engine.rank = 0 then
          match (eng.Engine.recv ~timeout:0.3 ~src:1 ~tag:0 () : int) with
          | _ -> Some "delivered"
          | exception Fault.Timeout _ -> Some "timeout"
          | exception Fault.Crashed _ -> Some "crashed"
        else None)
  in
  Alcotest.(check string) "Timeout, not Crashed" "timeout" v;
  Alcotest.(check (list int)) "the kill is recorded" [ 1 ] stats.Procs.crashed

let test_chaos_crash_is_fail_stop () =
  (* Chaos's Fault.Crashed self-raise fail-stops the real process: no
     goodbye, sockets slammed shut, run completes without it *)
  let v, stats =
    collect ~procs:3 (fun eng ->
        match eng.Engine.rank with
        | 0 ->
            eng.Engine.send ~dest:1 ~tag:0 42;
            (* dies with the crash *)
            None
        | 1 -> raise (Fault.Crashed 1)
        | _ -> Some "alive")
  in
  Alcotest.(check string) "live ranks finish" "alive" v;
  Alcotest.(check (list int)) "crash recorded" [ 1 ] stats.Procs.crashed

(* --- engine equivalence: the shared cases on sim and procs ----------------- *)

let engines = Engine_cases.[ Engine sim; Engine Spmd.Procs ]
let collective_program = Engine_cases.collective_program

(* --- chaos on real processes --------------------------------------------- *)

let test_chaos_zero_fault_value_identical () =
  let bare, _ = Spmd.run Spmd.Procs ~procs:4 collective_program in
  let wrapped, _ = Spmd.run Spmd.Procs ~procs:4 ~chaos:Chaos.none collective_program in
  Alcotest.(check bool) "Chaos.none changes nothing" true (bare = wrapped)

let test_chaos_delays_value_identical () =
  let bare, _ = Spmd.run Spmd.Procs ~procs:4 collective_program in
  List.iter
    (fun seed ->
      let spec = Chaos.delays ~seed ~prob:0.5 ~max_hold:3 () in
      let v, _ = Spmd.run Spmd.Procs ~procs:4 ~chaos:spec collective_program in
      Alcotest.(check bool) (Printf.sprintf "seed=%d" seed) true (v = bare))
    [ 1; 7; 42 ]

(* --- the crash-tolerant farm, driven by real process deaths --------------- *)

let farm_expected njobs = Array.init njobs (fun i -> i * i)

let test_farm_survives_real_kill () =
  (* the end-to-end scenario this engine exists for: a worker is
     SIGKILLed after ACCEPTING a job (so the job is genuinely stranded),
     and the farm still completes via at-least-once re-dealing. The
     victim speaks the worker protocol directly (request tag 7001, job
     tag 7002 — the farm's wire protocol) for exactly one deal, then
     dies holding the job. *)
  let njobs = 16 in
  let spec = Algorithms.Farm_sim.skewed_spec ~njobs ~skew:4 in
  let got, stats =
    Spmd.run Spmd.Procs ~procs:4 (fun comm ->
        if Comm.rank comm = 3 then begin
          Comm.send comm ~dest:0 ~tag:7001 (`Request : [ `Request | `Result of int * int ]);
          let (_job : int) = Comm.recv comm ~src:0 ~tag:7002 () in
          kill_self ();
          None
        end
        else Algorithms.Farm_sim.dynamic_program ~grace:0.5 spec comm)
  in
  Alcotest.(check bool) "all jobs done despite the kill" true (got = farm_expected njobs);
  Alcotest.(check (list int)) "the dead worker is recorded" [ 3 ] stats.Procs.crashed

let suite =
  [
    ( "fabric",
      [
        Alcotest.test_case "single rank" `Quick test_single_rank;
        Alcotest.test_case "ping pong" `Quick test_ping_pong;
        Alcotest.test_case "tag discipline out of order" `Quick test_tag_discipline_out_of_order;
        Alcotest.test_case "self send rejected" `Quick test_self_send_rejected;
        Alcotest.test_case "recv timeout fires" `Quick test_recv_timeout_fires;
        Alcotest.test_case "in-time delivery beats deadline" `Quick test_recv_timeout_in_time;
        Alcotest.test_case "sender finished is deadlock" `Quick test_deadlock_sender_finished;
        Alcotest.test_case "undelivered message" `Quick test_undelivered_message;
        Alcotest.test_case "rank exception propagates" `Quick test_rank_exception_propagates;
      ] );
    ( "marshal-discipline",
      [
        Alcotest.test_case "closure payload rejected" `Quick test_unserializable_closure_rejected;
        Alcotest.test_case "closure result rejected" `Quick test_unserializable_result_rejected;
      ] );
    ( "crashes",
      [
        Alcotest.test_case "SIGKILL mid-protocol is Crashed" `Quick
          test_real_kill_mid_protocol_is_crashed;
        Alcotest.test_case "timed recv from dead peer times out" `Quick
          test_real_kill_timed_recv_still_times_out;
        Alcotest.test_case "chaos crash is fail-stop" `Quick test_chaos_crash_is_fail_stop;
      ] );
    Engine_cases.group "engine-equivalence" Engine_cases.equivalence engines;
    Engine_cases.group "collect" Engine_cases.collect engines;
    Engine_cases.group "runner" Engine_cases.runner engines;
    Engine_cases.group "validation" Engine_cases.validation engines;
    ( "chaos",
      [
        Alcotest.test_case "zero-fault wrap is value-identical" `Quick
          test_chaos_zero_fault_value_identical;
        Alcotest.test_case "delays preserve values" `Quick test_chaos_delays_value_identical;
      ] );
    (let name, cases = Engine_cases.group "farm" Engine_cases.farm engines in
     ( name,
       cases @ [ Alcotest.test_case "survives a real SIGKILL" `Quick test_farm_survives_real_kill ]
     ));
  ]

let () = Alcotest.run "procs" suite
