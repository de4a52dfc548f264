(* Tests for the Section 4 transformation engine: every rewrite rule must
   preserve the interpreter semantics on random programs and inputs, and
   the cost model must rank rewrites the same way the simulator does. *)

open Transform

let qtest ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen prop)

let value_of_list xs = Value.of_int_array (Array.of_list xs)

let eval_equal e1 e2 v = Value.equal (Ast.eval e1 v) (Ast.eval e2 v)

let nonempty_int_list = QCheck.(list_of_size (QCheck.Gen.int_range 1 40) small_int)

(* --- interpreter --------------------------------------------------------- *)

let test_eval_map () =
  let v = Ast.eval (Ast.Map Fn.double) (value_of_list [ 1; 2; 3 ]) in
  Alcotest.(check (array int)) "doubled" [| 2; 4; 6 |] (Value.to_int_array v)

let test_eval_compose_order () =
  (* Compose (f, g) applies g first. *)
  let e = Ast.Compose (Ast.Map Fn.double, Ast.Map Fn.incr) in
  let v = Ast.eval e (value_of_list [ 1 ]) in
  Alcotest.(check (array int)) "(x+1)*2" [| 4 |] (Value.to_int_array v)

let test_eval_fold_scan () =
  let arr = value_of_list [ 1; 2; 3; 4 ] in
  Alcotest.(check int) "fold add" 10 (Value.as_int (Ast.eval (Ast.Fold Fn.add) arr));
  Alcotest.(check (array int)) "scan add" [| 1; 3; 6; 10 |]
    (Value.to_int_array (Ast.eval (Ast.Scan Fn.add) arr))

let test_eval_foldr_compose () =
  (* foldr (add . square) [1;2;3] = 1 + 4 + 9 *)
  let v = Ast.eval (Ast.Foldr_compose (Fn.add, Fn.square)) (value_of_list [ 1; 2; 3 ]) in
  Alcotest.(check int) "sum of squares" 14 (Value.as_int v)

let test_eval_foldr_non_assoc () =
  (* foldr (sub . id): 1 - (2 - 3) = 2 — right fold semantics. *)
  let v = Ast.eval (Ast.Foldr_compose (Fn.sub, Fn.id)) (value_of_list [ 1; 2; 3 ]) in
  Alcotest.(check int) "right fold" 2 (Value.as_int v)

let test_eval_communication () =
  let arr = value_of_list [ 0; 10; 20; 30 ] in
  Alcotest.(check (array int)) "rotate" [| 10; 20; 30; 0 |]
    (Value.to_int_array (Ast.eval (Ast.Rotate 1) arr));
  Alcotest.(check (array int)) "fetch shift" [| 10; 20; 30; 0 |]
    (Value.to_int_array (Ast.eval (Ast.Fetch (Fn.i_shift 1)) arr));
  Alcotest.(check (array int)) "send shift" [| 30; 0; 10; 20 |]
    (Value.to_int_array (Ast.eval (Ast.Send (Fn.i_shift 1)) arr))

let test_eval_split_combine () =
  let arr = value_of_list [ 1; 2; 3; 4; 5 ] in
  let nested = Ast.eval (Ast.Split 2) arr in
  (match nested with
  | Value.Arr [| Value.Arr a; Value.Arr b |] ->
      Alcotest.(check int) "first group" 3 (Array.length a);
      Alcotest.(check int) "second group" 2 (Array.length b)
  | _ -> Alcotest.fail "expected two groups");
  Alcotest.(check bool) "combine inverts" true
    (Value.equal arr (Ast.eval (Ast.Compose (Ast.Combine, Ast.Split 2)) arr))

let test_eval_iter_for () =
  let e = Ast.Iter_for (3, Ast.Map Fn.incr) in
  Alcotest.(check (array int)) "+3" [| 3; 4 |] (Value.to_int_array (Ast.eval e (value_of_list [ 0; 1 ])))

let test_eval_type_errors () =
  Alcotest.(check bool) "map on scalar" true
    (try
       ignore (Ast.eval (Ast.Map Fn.incr) (Value.Int 3));
       false
     with Value.Type_error _ -> true);
  Alcotest.(check bool) "fold on empty" true
    (try
       ignore (Ast.eval (Ast.Fold Fn.add) (Value.Arr [||]));
       false
     with Value.Type_error _ -> true)

let test_chain_roundtrip () =
  let e = Ast.Compose (Ast.Map Fn.incr, Ast.Compose (Ast.Rotate 2, Ast.Map Fn.double)) in
  let chain = Ast.to_chain e in
  Alcotest.(check int) "three stages" 3 (List.length chain);
  Alcotest.(check bool) "of_chain . to_chain preserves meaning" true
    (eval_equal e (Ast.of_chain chain) (value_of_list [ 1; 2; 3; 4 ]))

(* --- individual rules preserve semantics ---------------------------------- *)

let check_rule_preserves name rule e xs =
  match rule.Rules.apply_at (Ast.to_chain e) with
  | None -> true
  | Some (chain', _) ->
      let e' = Ast.of_chain chain' in
      let v = value_of_list xs in
      ignore name;
      Value.equal (Ast.eval e v) (Ast.eval e' v)

let prop_map_fusion_sound =
  qtest "map fusion preserves semantics" nonempty_int_list (fun xs ->
      let e = Ast.Compose (Ast.Map Fn.double, Ast.Map Fn.incr) in
      check_rule_preserves "map-fusion" Rules.map_fusion e xs)

let test_map_fusion_fires () =
  let e = Ast.Compose (Ast.Map Fn.double, Ast.Map Fn.incr) in
  let e', steps = Rewrite.normalize e in
  Alcotest.(check int) "one step" 1 (List.length steps);
  match e' with
  | Ast.Map f -> Alcotest.(check string) "fused name" "double.incr" f.Fn.name
  | _ -> Alcotest.failf "expected a single map, got %s" (Ast.to_string e')

let prop_map_distribution_sound =
  qtest "map distribution preserves semantics" nonempty_int_list (fun xs ->
      let e = Ast.Foldr_compose (Fn.add, Fn.square) in
      check_rule_preserves "map-distribution" Rules.map_distribution e xs)

let test_map_distribution_fires () =
  let e', steps = Rewrite.normalize (Ast.Foldr_compose (Fn.add, Fn.square)) in
  Alcotest.(check bool) "rewrote" true (steps <> []);
  Alcotest.(check string) "fold . map" "fold add . map square" (Ast.to_string e')

let test_map_distribution_respects_associativity () =
  (* sub is not associative: the rule must not fire. *)
  let e = Ast.Foldr_compose (Fn.sub, Fn.square) in
  let e', steps = Rewrite.normalize e in
  Alcotest.(check int) "no steps" 0 (List.length steps);
  Alcotest.(check bool) "unchanged" true (e == e')

let prop_send_fusion_sound =
  qtest "send fusion preserves semantics"
    QCheck.(pair nonempty_int_list (pair (int_range 0 10) (int_range 0 10)))
    (fun (xs, (a, b)) ->
      let e = Ast.Compose (Ast.Send (Fn.i_shift a), Ast.Send (Fn.i_shift b)) in
      check_rule_preserves "send-fusion" Rules.send_fusion e xs)

let prop_fetch_fusion_sound =
  qtest "fetch fusion preserves semantics"
    QCheck.(pair nonempty_int_list (pair (int_range 0 10) (int_range 0 10)))
    (fun (xs, (a, b)) ->
      let e = Ast.Compose (Ast.Fetch (Fn.i_shift a), Ast.Fetch (Fn.i_shift b)) in
      check_rule_preserves "fetch-fusion" Rules.fetch_fusion e xs)

let prop_fetch_fusion_with_reverse =
  qtest "fetch reverse . fetch shift fuses correctly"
    QCheck.(pair nonempty_int_list (int_range 0 10))
    (fun (xs, k) ->
      let e = Ast.Compose (Ast.Fetch Fn.i_reverse, Ast.Fetch (Fn.i_shift k)) in
      let e', _ = Rewrite.normalize e in
      eval_equal e e' (value_of_list xs))

let prop_rotate_fusion_sound =
  qtest "rotate fusion preserves semantics"
    QCheck.(pair nonempty_int_list (pair (int_range (-10) 10) (int_range (-10) 10)))
    (fun (xs, (a, b)) ->
      let e = Ast.Compose (Ast.Rotate a, Ast.Rotate b) in
      let e', _ = Rewrite.normalize e in
      eval_equal e e' (value_of_list xs))

let test_rotate_fusion_result () =
  let e', _ = Rewrite.normalize (Ast.Compose (Ast.Rotate 2, Ast.Rotate 3)) in
  Alcotest.(check string) "single rotate" "rotate 5" (Ast.to_string e')

let prop_rotate_fetch_fusion_sound =
  qtest "rotate/fetch absorption preserves semantics"
    QCheck.(triple nonempty_int_list (int_range (-8) 8) (int_range 0 8))
    (fun (xs, k, j) ->
      let e1 = Ast.of_chain [ Ast.Rotate k; Ast.Fetch (Fn.i_shift j) ] in
      let e2 = Ast.of_chain [ Ast.Fetch (Fn.i_shift j); Ast.Rotate k ] in
      let e3 = Ast.of_chain [ Ast.Rotate k; Ast.Fetch Fn.i_reverse ] in
      let v = value_of_list xs in
      List.for_all
        (fun e ->
          let e', _ = Rewrite.normalize e in
          eval_equal e e' v)
        [ e1; e2; e3 ])

let test_rotate_fetch_fuses () =
  let e = Ast.of_chain [ Ast.Rotate 3; Ast.Fetch Fn.i_reverse ] in
  let e', _ = Rewrite.normalize e in
  Alcotest.(check int) "single stage" 1 (List.length (Ast.to_chain e'));
  match Ast.to_chain e' with
  | [ Ast.Fetch _ ] -> ()
  | _ -> Alcotest.failf "expected a fused fetch, got %s" (Ast.to_string e')

let test_rotate_cancellation () =
  let e', _ = Rewrite.normalize (Ast.Compose (Ast.Rotate 2, Ast.Rotate (-2))) in
  Alcotest.(check string) "cancels to id" "id" (Ast.to_string e')

let test_identity_elim () =
  let e = Ast.Compose (Ast.Id, Ast.Compose (Ast.Map Fn.incr, Ast.Rotate 0)) in
  let e', _ = Rewrite.normalize e in
  Alcotest.(check string) "cleaned" "map incr" (Ast.to_string e')

let test_split_combine_elim () =
  let e = Ast.Compose (Ast.Combine, Ast.Split 4) in
  let e', _ = Rewrite.normalize e in
  Alcotest.(check string) "id" "id" (Ast.to_string e')

let prop_nested_map_flatten_sound =
  qtest "flattening(map) preserves semantics"
    QCheck.(pair nonempty_int_list (int_range 1 6))
    (fun (xs, p) ->
      let e =
        Ast.Compose (Ast.Combine, Ast.Compose (Ast.Map_nested (Ast.Map Fn.square), Ast.Split p))
      in
      let e', _ = Rewrite.normalize e in
      eval_equal e e' (value_of_list xs))

let test_nested_map_flatten_fires () =
  let e =
    Ast.Compose (Ast.Combine, Ast.Compose (Ast.Map_nested (Ast.Map Fn.square), Ast.Split 4))
  in
  let e', _ = Rewrite.normalize e in
  Alcotest.(check string) "flat map" "map square" (Ast.to_string e')

let prop_nested_fold_flatten_sound =
  qtest "flattening(fold) preserves semantics"
    QCheck.(pair nonempty_int_list (int_range 1 6))
    (fun (xs, p) ->
      (* groups can be empty when p > n: Map_nested (Fold) would fail, so
         size the split to the data *)
      let p = max 1 (min p (List.length xs)) in
      let e =
        Ast.Compose (Ast.Fold Fn.add, Ast.Compose (Ast.Map_nested (Ast.Fold Fn.add), Ast.Split p))
      in
      let e', _ = Rewrite.normalize e in
      eval_equal e e' (value_of_list xs))

let test_nested_fold_flatten_fires () =
  let e =
    Ast.Compose (Ast.Fold Fn.add, Ast.Compose (Ast.Map_nested (Ast.Fold Fn.add), Ast.Split 2))
  in
  let e', _ = Rewrite.normalize e in
  Alcotest.(check string) "flat fold" "fold add" (Ast.to_string e')

let prop_iter_unroll_sound =
  qtest "iterFor unrolling + rotate fusion preserves semantics"
    QCheck.(pair nonempty_int_list (int_range 0 8))
    (fun (xs, k) ->
      let e = Ast.Iter_for (k, Ast.Rotate 1) in
      let e', _ = Rewrite.normalize ~rules:Rules.all e in
      eval_equal e e' (value_of_list xs))

let test_iter_unroll_fuses_rotations () =
  let e = Ast.Iter_for (5, Ast.Rotate 1) in
  let e', _ = Rewrite.normalize ~rules:Rules.all e in
  Alcotest.(check string) "five rotations become one" "rotate 5" (Ast.to_string e')

(* --- whole-pipeline property: normalisation preserves semantics ------------ *)

(* Random flat pipelines over int arrays. *)
let gen_stage =
  QCheck.Gen.(
    frequency
      [
        (3, map (fun f -> Ast.Map f) (oneofl [ Fn.incr; Fn.double; Fn.square; Fn.negate ]));
        (1, return (Ast.Imap Fn.add_index));
        (1, map (fun k -> Ast.Rotate k) (int_range (-5) 5));
        (1, map (fun k -> Ast.Fetch (Fn.i_shift k)) (int_range 0 5));
        (1, map (fun k -> Ast.Send (Fn.i_shift k)) (int_range 0 5));
        (1, return (Ast.Fetch Fn.i_reverse));
        (1, map (fun f -> Ast.Scan f) (oneofl [ Fn.add; Fn.imax ]));
      ])

let gen_pipeline = QCheck.Gen.(map Ast.of_chain (list_size (int_range 0 8) gen_stage))

let arb_pipeline = QCheck.make ~print:Ast.to_string gen_pipeline

let prop_normalize_preserves_semantics =
  qtest ~count:500 "normalize preserves semantics on random pipelines"
    QCheck.(pair arb_pipeline nonempty_int_list)
    (fun (e, xs) ->
      let e', _ = Rewrite.normalize e in
      eval_equal e e' (value_of_list xs))

let prop_normalize_idempotent =
  qtest ~count:200 "normalize is idempotent" arb_pipeline (fun e ->
      let e', _ = Rewrite.normalize e in
      let e'', steps = Rewrite.normalize e' in
      steps = [] && Ast.to_string e' = Ast.to_string e'')

let prop_normalize_never_grows =
  qtest ~count:200 "normalize never grows the pipeline" arb_pipeline (fun e ->
      let e', _ = Rewrite.normalize e in
      Ast.size e' <= Ast.size e)

(* --- cost model -------------------------------------------------------------- *)

let test_cost_fusion_improves () =
  let e = Ast.Compose (Ast.Map Fn.double, Ast.Map Fn.incr) in
  let e', _ = Rewrite.normalize e in
  let c = Cost.estimate_pipeline ~procs:16 ~n:65536 e in
  let c' = Cost.estimate_pipeline ~procs:16 ~n:65536 e' in
  Alcotest.(check bool) "fused is cheaper" true (c' < c)

let test_cost_map_distribution_improves () =
  let e = Ast.Foldr_compose (Fn.add, Fn.square) in
  let e', _ = Rewrite.normalize e in
  let c = Cost.estimate_pipeline ~procs:16 ~n:65536 e in
  let c' = Cost.estimate_pipeline ~procs:16 ~n:65536 e' in
  Alcotest.(check bool) "parallelised is cheaper" true (c' < c)

let test_cost_monotone_in_n () =
  let e = Ast.Map Fn.square in
  let c1 = Cost.estimate_pipeline ~procs:4 ~n:1000 e in
  let c2 = Cost.estimate_pipeline ~procs:4 ~n:100000 e in
  Alcotest.(check bool) "bigger input costs more" true (c2 > c1)

let test_optimizer_report () =
  let e =
    Ast.Compose
      (Ast.Rotate 1, Ast.Compose (Ast.Rotate 2, Ast.Compose (Ast.Map Fn.incr, Ast.Map Fn.double)))
  in
  let r = Optimizer.optimize ~procs:8 ~n:4096 e in
  Alcotest.(check bool) "cost not worse" true (r.Optimizer.cost_after <= r.Optimizer.cost_before);
  Alcotest.(check string) "fully fused" "rotate 3 . map incr.double" (Ast.to_string r.Optimizer.output)

(* --- cost-driven search ------------------------------------------------------ *)

(* A workload where greedy normalisation over the default rules stalls:
   flattening and fusion fire, but without the commuting rules the map
   behind the rotate never joins the front group. Beam search over the
   full rule set finds the strictly cheaper fully-fused plan. *)
let search_workload =
  Ast.of_chain
    [
      Ast.Split 4;
      Ast.Map_nested (Ast.Map Fn.incr);
      Ast.Combine;
      Ast.Map Fn.double;
      Ast.Rotate 3;
      Ast.Map Fn.square;
    ]

let test_search_beats_greedy_on_commuting () =
  let g = Optimizer.optimize ~procs:8 ~n:4096 ~strategy:Optimizer.Greedy search_workload in
  let b = Optimizer.optimize ~procs:8 ~n:4096 ~strategy:Optimizer.default_beam search_workload in
  Alcotest.(check bool) "beam never worse than greedy" true
    (b.Optimizer.cost_after <= g.Optimizer.cost_after);
  Alcotest.(check bool) "beam strictly better here" true
    (b.Optimizer.cost_after < g.Optimizer.cost_after);
  Alcotest.(check string) "fully fused across the rotate" "rotate 3 . map square.double.incr"
    (Ast.to_string b.Optimizer.output);
  Alcotest.(check bool) "frontier explored" true (b.Optimizer.explored > 1)

let test_search_makespan_not_worse () =
  (* The cost ranking must be real: the searched plan's simulated makespan
     is within tolerance of (here: strictly below) the greedy plan's. *)
  let input = Value.of_int_array (Array.init 4096 Fun.id) in
  let g = Optimizer.optimize ~procs:8 ~n:4096 ~strategy:Optimizer.Greedy search_workload in
  let b = Optimizer.optimize ~procs:8 ~n:4096 ~strategy:Optimizer.default_beam search_workload in
  let vg, sg = Sim_exec.run ~procs:8 g.Optimizer.output input in
  let vb, sb = Sim_exec.run ~procs:8 b.Optimizer.output input in
  Alcotest.(check bool) "plans agree on the value" true (Value.equal vg vb);
  Alcotest.(check bool) "searched makespan within tolerance of greedy" true
    (sb.Machine.Sim.makespan <= sg.Machine.Sim.makespan *. 1.05)

let prop_search_never_worse_than_greedy =
  qtest ~count:100 "beam search never costs more than greedy"
    (QCheck.make ~print:Ast.to_string gen_pipeline)
    (fun e ->
      let g = Optimizer.optimize ~procs:8 ~n:4096 ~strategy:Optimizer.Greedy e in
      let b = Optimizer.optimize ~procs:8 ~n:4096 ~strategy:Optimizer.default_beam e in
      b.Optimizer.cost_after <= g.Optimizer.cost_after +. 1e-12)

let prop_search_sound =
  qtest ~count:100 "beam-optimized pipeline preserves semantics"
    QCheck.(pair arb_pipeline nonempty_int_list)
    (fun (e, xs) ->
      let b = Optimizer.optimize ~procs:8 ~n:4096 ~strategy:Optimizer.default_beam e in
      eval_equal e b.Optimizer.output (value_of_list xs))

let prop_optimize_idempotent =
  qtest ~count:60 "optimize (optimize e) is a fixed point"
    (QCheck.make ~print:Ast.to_string gen_pipeline)
    (fun e ->
      let once =
        (Optimizer.optimize ~procs:8 ~n:4096 ~strategy:Optimizer.default_beam e).Optimizer.output
      in
      let twice =
        (Optimizer.optimize ~procs:8 ~n:4096 ~strategy:Optimizer.default_beam once)
          .Optimizer.output
      in
      Ast.to_string once = Ast.to_string twice)

(* --- simulator execution agrees with interpreter ---------------------------- *)

let prop_sim_exec_matches_interpreter =
  qtest ~count:50 "pipeline on the simulator = interpreter"
    QCheck.(triple arb_pipeline nonempty_int_list (int_range 1 4))
    (fun (e, xs, procs) ->
      let procs = max 1 procs in
      let v = value_of_list xs in
      let expected = Ast.eval e v in
      let got, _ = Sim_exec.run ~procs e v in
      Value.equal expected got)

let test_sim_exec_optimized_is_faster () =
  (* Ground truth for the cost model: a fusable pipeline must be measurably
     faster on the simulator after rewriting. *)
  let e =
    Ast.of_chain
      [ Ast.Map Fn.incr; Ast.Map Fn.double; Ast.Map Fn.square; Ast.Rotate 1; Ast.Rotate 2 ]
  in
  let e', _ = Rewrite.normalize e in
  let input = Value.of_int_array (Array.init 4096 Fun.id) in
  let v1, s1 = Sim_exec.run ~procs:8 e input in
  let v2, s2 = Sim_exec.run ~procs:8 e' input in
  Alcotest.(check bool) "same result" true (Value.equal v1 v2);
  Alcotest.(check bool) "optimized pipeline is faster on the simulator" true
    (s2.Machine.Sim.makespan < s1.Machine.Sim.makespan)

let test_sim_exec_segmented () =
  (* One level of split .. mapn .. combine now runs flat on the simulator:
     the payload stays block-distributed, only the segment descriptor
     changes shape. *)
  let e =
    Ast.of_chain
      [
        Ast.Split 3;
        Ast.Map_nested (Ast.of_chain [ Ast.Map Fn.incr; Ast.Scan Fn.add; Ast.Rotate 1 ]);
        Ast.Combine;
      ]
  in
  let v = value_of_list [ 1; 2; 3; 4; 5; 6; 7 ] in
  List.iter
    (fun procs ->
      let got, _ = Sim_exec.run ~procs e v in
      Alcotest.(check bool)
        (Printf.sprintf "segmented = interpreter at p=%d" procs)
        true
        (Value.equal (Ast.eval e v) got))
    [ 1; 2; 4 ]

let test_sim_exec_segmented_fold () =
  (* mapn [fold] leaves one scalar per group — already a flat array, no
     combine needed; the segmented executor's allgather-of-partials must
     agree with the interpreter, including when the pipeline continues
     with flat stages afterwards. *)
  let e =
    Ast.of_chain [ Ast.Split 2; Ast.Map_nested (Ast.Fold Fn.add); Ast.Map Fn.double ]
  in
  let v = value_of_list [ 1; 2; 3; 4; 5 ] in
  let got, _ = Sim_exec.run ~procs:4 e v in
  Alcotest.(check bool) "per-group folds, then a flat map" true (Value.equal (Ast.eval e v) got)

let test_sim_exec_rejects_deeper_nesting () =
  (* The segmented representation is one level deep: a split inside a
     segmented region is still out of scope (as documented). *)
  let e = Ast.of_chain [ Ast.Split 2; Ast.Split 2 ] in
  Alcotest.(check bool) "double split unsupported" true
    (try
       ignore (Sim_exec.run ~procs:2 e (value_of_list [ 1; 2; 3; 4 ]));
       false
     with Sim_exec.Unsupported _ -> true)

let test_nested_cross_backend () =
  (* Acceptance gate for the segmented representation: nested pipelines —
     one that stays segmented (scan body) and one the beam search flattens
     away entirely — compute the identical value on the reference
     interpreter, the sequential host backend, a 3-domain pool, and the
     simulator at p in {1,2,4}. *)
  let segmented =
    Parser.parse_exn "map double . combine . mapn [ scan add . map incr ] . split 3"
  in
  let v = Value.of_int_array (Array.init 11 (fun i -> i * 7 mod 13)) in
  let pool = Runtime.Pool.create ~num_domains:3 () in
  Fun.protect
    ~finally:(fun () -> Runtime.Pool.teardown pool)
    (fun () ->
      List.iter
        (fun nested ->
          let expected = Ast.eval nested v in
          let b = Optimizer.optimize ~procs:4 ~n:11 ~strategy:Optimizer.default_beam nested in
          List.iter
            (fun e ->
              let name = Ast.to_string e in
              Alcotest.(check bool) ("host-seq: " ^ name) true
                (Value.equal expected (Host_exec.eval e v));
              Alcotest.(check bool) ("host-pool: " ^ name) true
                (Value.equal expected (Host_exec.eval ~exec:(Scl.Exec.on_pool pool) e v));
              List.iter
                (fun procs ->
                  let got, _ = Sim_exec.run ~procs e v in
                  Alcotest.(check bool)
                    (Printf.sprintf "sim p=%d: %s" procs name)
                    true (Value.equal expected got))
                [ 1; 2; 4 ])
            [ nested; b.Optimizer.output ])
        [ segmented; search_workload ])

(* --- commuting rules ---------------------------------------------------------- *)

let prop_commute_sound =
  qtest ~count:300 "aggressive normalisation preserves semantics"
    QCheck.(pair arb_pipeline nonempty_int_list)
    (fun (e, xs) ->
      let e', _ = Rewrite.normalize ~rules:Rules.aggressive e in
      eval_equal e e' (value_of_list xs))

let test_commute_enables_fusion () =
  let e = Ast.of_chain [ Ast.Map Fn.incr; Ast.Rotate 3; Ast.Map Fn.double ] in
  let e', _ = Rewrite.normalize ~rules:Rules.aggressive e in
  Alcotest.(check string) "maps fused across the rotate" "rotate 3 . map double.incr"
    (Ast.to_string e')

let test_commute_terminates_and_idempotent () =
  let e =
    Ast.of_chain
      [ Ast.Map Fn.incr; Ast.Rotate 1; Ast.Map Fn.double; Ast.Fetch (Fn.i_shift 2); Ast.Map Fn.square ]
  in
  let e', _ = Rewrite.normalize ~rules:Rules.aggressive e in
  let e'', steps = Rewrite.normalize ~rules:Rules.aggressive e' in
  Alcotest.(check int) "fixpoint" 0 (List.length steps);
  Alcotest.(check string) "stable" (Ast.to_string e') (Ast.to_string e'')

let test_commute_moves_all_maps_front () =
  let e = Ast.of_chain [ Ast.Rotate 1; Ast.Map Fn.incr; Ast.Rotate 2; Ast.Map Fn.double ] in
  let e', _ = Rewrite.normalize ~rules:Rules.aggressive e in
  Alcotest.(check string) "single map then single rotate" "rotate 3 . map double.incr"
    (Ast.to_string e')

(* --- parser ---------------------------------------------------------------------- *)

let test_parse_simple () =
  let e = Parser.parse_exn "map square . rotate 3 . fold add" in
  Alcotest.(check string) "parsed" "map square . rotate 3 . fold add" (Ast.to_string e)

let test_parse_apply_order () =
  (* rightmost stage applies first, as in the paper's composition *)
  let e = Parser.parse_exn "map double . map incr" in
  let v = Ast.eval e (value_of_list [ 1 ]) in
  Alcotest.(check (array int)) "(1+1)*2" [| 4 |] (Value.to_int_array v)

let test_parse_nested () =
  let e = Parser.parse_exn "combine . mapn [ map square . rotate 1 ] . split 4" in
  let v = Ast.eval e (value_of_list [ 1; 2; 3; 4; 5; 6; 7; 8 ]) in
  Alcotest.(check int) "evaluates" 8 (Array.length (Value.to_int_array v))

let test_parse_iter () =
  let e = Parser.parse_exn "iter 3 [ rotate 1 ]" in
  Alcotest.(check (array int)) "three rotations"
    [| 3; 0; 1; 2 |]
    (Value.to_int_array (Ast.eval e (value_of_list [ 0; 1; 2; 3 ])))

let test_parse_foldr () =
  let e = Parser.parse_exn "foldr add square" in
  Alcotest.(check int) "sum of squares" 14 (Value.as_int (Ast.eval e (value_of_list [ 1; 2; 3 ])))

let test_parse_shift () =
  let e = Parser.parse_exn "fetch shift:-2" in
  Alcotest.(check (array int)) "negative shift"
    [| 2; 3; 0; 1 |]
    (Value.to_int_array (Ast.eval e (value_of_list [ 0; 1; 2; 3 ])))

let test_parse_errors () =
  let bad src =
    match Parser.parse src with
    | Error _ -> true
    | Ok _ -> false
  in
  Alcotest.(check bool) "empty" true (bad "");
  Alcotest.(check bool) "unknown skeleton" true (bad "frobnicate 3");
  Alcotest.(check bool) "unknown function" true (bad "map frob");
  Alcotest.(check bool) "missing arg" true (bad "rotate");
  Alcotest.(check bool) "non-integer arg" true (bad "rotate x");
  Alcotest.(check bool) "unclosed bracket" true (bad "mapn [ map incr");
  Alcotest.(check bool) "trailing garbage" true (bad "map incr ]");
  Alcotest.(check bool) "bad split" true (bad "split 0");
  Alcotest.(check bool) "dangling dot" true (bad "map incr .")

let test_parse_error_position () =
  match Parser.parse "map incr . map frob" with
  | Error { position; _ } -> Alcotest.(check int) "points at the bad name" 15 position
  | Ok _ -> Alcotest.fail "expected a parse error"

let test_print_parse_nested_regression () =
  (* Regression: Ast.pp used to print Map_nested as "map [ ... ]" and
     Iter_for as "iterFor k [ ... ]" — neither re-parses ("map" takes a
     function name, "iterFor" is not a keyword). The printer now agrees
     with the surface syntax, so nested pipelines survive a print/parse
     round trip. *)
  let e =
    Ast.of_chain
      [
        Ast.Split 2;
        Ast.Map_nested (Ast.of_chain [ Ast.Map Fn.incr; Ast.Rotate 1 ]);
        Ast.Combine;
      ]
  in
  Alcotest.(check string) "printed in surface syntax"
    "combine . mapn [ rotate 1 . map incr ] . split 2" (Ast.to_string e);
  Alcotest.(check string) "nested print/parse round trip" (Ast.to_string e)
    (Ast.to_string (Parser.parse_exn (Ast.to_string e)));
  let it = Ast.Iter_for (2, Ast.Map Fn.incr) in
  Alcotest.(check string) "iter printed in surface syntax" "iter 2 [ map incr ]"
    (Ast.to_string it);
  Alcotest.(check string) "iter print/parse round trip" (Ast.to_string it)
    (Ast.to_string (Parser.parse_exn (Ast.to_string it)))

(* Round-trip: printing then parsing reconstructs the pipeline. *)
let gen_parseable_stage =
  QCheck.Gen.(
    frequency
      [
        (3, map (fun f -> Ast.Map f) (oneofl [ Fn.incr; Fn.double; Fn.square; Fn.negate; Fn.halve ]));
        (1, map (fun f -> Ast.Fold f) (oneofl [ Fn.add; Fn.mul; Fn.imax ]));
        (1, map (fun f -> Ast.Scan f) (oneofl [ Fn.add; Fn.imin ]));
        (1, map (fun (f, g) -> Ast.Foldr_compose (f, g)) (pair (oneofl [ Fn.add; Fn.sub ]) (oneofl [ Fn.square; Fn.incr ])));
        (1, map (fun k -> Ast.Rotate k) (int_range (-9) 9));
        (1, map (fun k -> Ast.Fetch (Fn.i_shift k)) (int_range (-5) 5));
        (1, map (fun k -> Ast.Send (Fn.i_shift k)) (int_range 0 5));
        (1, return (Ast.Fetch Fn.i_reverse));
        (1, map (fun p -> Ast.Split (1 + p)) (int_range 0 5));
        (1, return Ast.Combine);
        (1, return (Ast.Imap Fn.add_index));
        ( 1,
          map
            (fun f -> Ast.Map_nested (Ast.Map f))
            (oneofl [ Fn.incr; Fn.double; Fn.square ]) );
        ( 1,
          map2
            (fun k f -> Ast.Iter_for (k, Ast.Map f))
            (int_range 0 3)
            (oneofl [ Fn.incr; Fn.square ]) );
      ])

let gen_parseable =
  QCheck.Gen.(map Ast.of_chain (list_size (int_range 1 7) gen_parseable_stage))

let prop_parse_roundtrip =
  qtest ~count:300 "parse (to_source e) = e"
    (QCheck.make ~print:Ast.to_string gen_parseable)
    (fun e ->
      match Parser.to_source e with
      | None -> false
      | Some src -> (
          match Parser.parse src with
          | Ok e' -> Ast.to_string e = Ast.to_string e'
          | Error _ -> false))

let test_to_source_rejects_fused () =
  let fused = Ast.Map (Fn.compose Fn.incr Fn.double) in
  Alcotest.(check bool) "fused names are print-only" true (Parser.to_source fused = None)

(* --- robustness / meta properties ------------------------------------------------ *)

let prop_parser_never_crashes =
  qtest ~count:500 "parser total on arbitrary input (Ok or Error, no exception)"
    QCheck.(string_gen_of_size (QCheck.Gen.int_range 0 60) QCheck.Gen.printable)
    (fun src ->
      match Parser.parse src with
      | Ok _ | Error _ -> true)

let prop_program_parser_never_crashes =
  qtest ~count:300 "program parser total on arbitrary input"
    QCheck.(string_gen_of_size (QCheck.Gen.int_range 0 80) QCheck.Gen.printable)
    (fun src ->
      match Parser.parse_program src with
      | Ok _ | Error _ -> true)

let prop_cost_additive_over_compose =
  qtest ~count:200 "cost of a composition = sum of stage costs"
    (QCheck.make ~print:Ast.to_string gen_pipeline)
    (fun e ->
      let total = Cost.estimate_pipeline ~procs:8 ~n:4096 e in
      let parts =
        List.fold_left
          (fun acc st -> acc +. Cost.estimate_pipeline ~procs:8 ~n:4096 st)
          0.0 (Ast.to_chain e)
      in
      Float.abs (total -. parts) <= 1e-12 *. Float.max 1.0 total)

let prop_optimizer_never_worse =
  qtest ~count:200 "optimizer never increases estimated cost"
    (QCheck.make ~print:Ast.to_string gen_pipeline)
    (fun e ->
      let r = Optimizer.optimize ~procs:8 ~n:4096 e in
      r.Optimizer.cost_after <= r.Optimizer.cost_before +. 1e-15)

(* --- programs (let-definitions) ---------------------------------------------- *)

let test_program_basic () =
  let defs =
    Parser.parse_program_exn
      "let sweep = map incr . rotate 2\nlet main = fold add . sweep . sweep"
  in
  Alcotest.(check (list string)) "definition names" [ "sweep"; "main" ] (List.map fst defs);
  let main = List.assoc "main" defs in
  (* references are inlined: 2 sweeps of 2 stages + the fold *)
  Alcotest.(check int) "inlined stage count" 5 (List.length (Ast.to_chain main))

let test_program_semantics () =
  let defs =
    Parser.parse_program_exn "let twice = map double . map double\nlet main = twice . map incr"
  in
  let v = Ast.eval (List.assoc "main" defs) (value_of_list [ 1 ]) in
  Alcotest.(check (array int)) "(1+1)*4" [| 8 |] (Value.to_int_array v)

let test_program_reference_in_iter () =
  let defs =
    Parser.parse_program_exn "let step = rotate 1\nlet main = iter 3 [ step ]"
  in
  let v = Ast.eval (List.assoc "main" defs) (value_of_list [ 0; 1; 2; 3 ]) in
  Alcotest.(check (array int)) "three rotations" [| 3; 0; 1; 2 |] (Value.to_int_array v)

let test_program_errors () =
  let bad src = match Parser.parse_program src with Error _ -> true | Ok _ -> false in
  Alcotest.(check bool) "forward reference" true (bad "let main = helper\nlet helper = id");
  Alcotest.(check bool) "duplicate definition" true (bad "let a = id\nlet a = id");
  Alcotest.(check bool) "keyword name" true (bad "let map = id");
  Alcotest.(check bool) "missing equals" true (bad "let a id");
  Alcotest.(check bool) "no let" true (bad "map incr");
  Alcotest.(check bool) "empty" true (bad "")

let test_program_optimizes_across_references () =
  let defs =
    Parser.parse_program_exn "let a = rotate 2\nlet b = rotate 3\nlet main = a . b"
  in
  let e', _ = Rewrite.normalize (List.assoc "main" defs) in
  Alcotest.(check string) "fused across definitions" "rotate 5" (Ast.to_string e')

(* --- codegen -------------------------------------------------------------------- *)

let test_codegen_golden () =
  (* The checked-in generated example must be exactly what Codegen emits
     today (and it is compiled by dune, proving the emitted code is valid
     OCaml). *)
  let src = "fold add . map square . rotate 3 . iter 2 [ map incr ] . fetch reverse" in
  let e = Parser.parse_exn src in
  let generated = Codegen.generate ~name:"run_pipeline" e in
  let path =
    (* dune runtest runs in _build/default/test; dune exec runs in the
       project root *)
    List.find Sys.file_exists
      [
        "../examples/generated/generated_pipeline.ml";
        "examples/generated/generated_pipeline.ml";
        "_build/default/examples/generated/generated_pipeline.ml";
      ]
  in
  let checked_in =
    let ic = open_in_bin path in
    let n = in_channel_length ic in
    let s = really_input_string ic n in
    close_in ic;
    s
  in
  Alcotest.(check string) "regeneration is byte-identical" checked_in generated

let test_codegen_host_golden () =
  let src = "fold add . map square . rotate 3 . iter 2 [ map incr ] . fetch reverse" in
  let e = Parser.parse_exn src in
  let generated = Codegen.generate_host ~name:"run_pipeline" e in
  let path =
    List.find Sys.file_exists
      [
        "../examples/generated/generated_pipeline_host.ml";
        "examples/generated/generated_pipeline_host.ml";
        "_build/default/examples/generated/generated_pipeline_host.ml";
      ]
  in
  let checked_in =
    let ic = open_in_bin path in
    let n = in_channel_length ic in
    let s = really_input_string ic n in
    close_in ic;
    s
  in
  Alcotest.(check string) "host regeneration is byte-identical" checked_in generated

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let seg_pipeline_src = "fold add . combine . mapn [ map square . map incr ] . split 4"

let test_codegen_seg_golden () =
  (* The nested golden pair: a segmented pipeline compiled as-is. It is
     also compiled by dune (examples/generated), proving the emitted
     segmented code is valid OCaml. *)
  let e = Parser.parse_exn seg_pipeline_src in
  let generated = Codegen.generate ~name:"run_pipeline_seg" e in
  let path =
    List.find Sys.file_exists
      [
        "../examples/generated/generated_pipeline_seg.ml";
        "examples/generated/generated_pipeline_seg.ml";
        "_build/default/examples/generated/generated_pipeline_seg.ml";
      ]
  in
  Alcotest.(check string) "seg regeneration is byte-identical" (read_file path) generated

let test_codegen_seg_host_golden () =
  let e = Parser.parse_exn seg_pipeline_src in
  let generated = Codegen.generate_host ~name:"run_pipeline_seg" e in
  let path =
    List.find Sys.file_exists
      [
        "../examples/generated/generated_pipeline_seg_host.ml";
        "examples/generated/generated_pipeline_seg_host.ml";
        "_build/default/examples/generated/generated_pipeline_seg_host.ml";
      ]
  in
  Alcotest.(check string) "seg host regeneration is byte-identical" (read_file path) generated

let prop_host_codegen_source_wellformed =
  qtest ~count:100 "host codegen emits for every compilable pipeline"
    (QCheck.make ~print:Ast.to_string gen_parseable)
    (fun e ->
      let chain =
        List.filter
          (function
            | Ast.Split _ | Ast.Combine | Ast.Map_nested _ | Ast.Fold _ | Ast.Foldr_compose _
              ->
                false
            | _ -> true)
          (Ast.to_chain e)
      in
      match Codegen.generate_host (Ast.of_chain chain) with
      | (_ : string) -> true
      | exception Codegen.Not_compilable _ -> false)

let test_codegen_rejects_foldr () =
  Alcotest.(check bool) "foldr not compilable" true
    (not (Codegen.compilable (Ast.Foldr_compose (Fn.add, Fn.square))));
  let rewritten, _ = Rewrite.normalize (Ast.Foldr_compose (Fn.add, Fn.square)) in
  Alcotest.(check bool) "compilable after map distribution" true (Codegen.compilable rewritten)

let test_codegen_compiles_segmented () =
  (* split .. mapn [maps] .. combine now compiles directly: the segmented
     region emits the flat maps (the flattening rules' insight, in the
     emitted code). Flattening it first must of course stay compilable. *)
  let nested = Ast.of_chain [ Ast.Split 4; Ast.Map_nested (Ast.Map Fn.incr); Ast.Combine ] in
  Alcotest.(check bool) "mapn of maps compilable" true (Codegen.compilable nested);
  let flat, _ = Rewrite.normalize nested in
  Alcotest.(check bool) "still compilable after flattening" true (Codegen.compilable flat);
  (* both targets actually emit source for the nested form *)
  Alcotest.(check bool) "sim target emits" true (String.length (Codegen.generate nested) > 0);
  Alcotest.(check bool) "host target emits" true
    (String.length (Codegen.generate_host nested) > 0)

let test_codegen_rejects_unflattened_fold () =
  (* A fold body inside a segmented region is not compilable until
     nested_fold_flatten has rewritten it away. *)
  let nested =
    Ast.of_chain [ Ast.Split 4; Ast.Map_nested (Ast.Fold Fn.add); Ast.Fold Fn.add ]
  in
  Alcotest.(check bool) "mapn of fold not compilable" true (not (Codegen.compilable nested));
  let flat, _ = Rewrite.normalize nested in
  Alcotest.(check bool) "compilable after nested_fold_flatten" true (Codegen.compilable flat);
  Alcotest.(check string) "flattened to the flat fold" "fold add" (Ast.to_string flat);
  (* a split that never combines is also rejected *)
  Alcotest.(check bool) "unterminated segment rejected" true
    (not (Codegen.compilable (Ast.Split 2)))

let test_codegen_rejects_mid_fold () =
  let e = Ast.of_chain [ Ast.Fold Fn.add; Ast.Map Fn.incr ] in
  Alcotest.(check bool) "fold must be last" true (not (Codegen.compilable e))

(* --- flat host target ----------------------------------------------------- *)

let flat_pipeline_src = "fold fadd . map fdouble . scan fadd . map fhalve . map fincr"

let contains_substring s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let test_codegen_flat_golden () =
  let e = Parser.parse_exn flat_pipeline_src in
  let generated = Codegen.generate_host_flat ~name:"run_pipeline_flat" e in
  let path =
    List.find Sys.file_exists
      [
        "../examples/generated/generated_pipeline_flat.ml";
        "examples/generated/generated_pipeline_flat.ml";
        "_build/default/examples/generated/generated_pipeline_flat.ml";
      ]
  in
  Alcotest.(check string) "flat regeneration is byte-identical" (read_file path) generated;
  (* the golden fuses: the leading map run into one Chain scanned by
     fmap_scan, the next map into the fold *)
  Alcotest.(check bool) "chained fmap_scan emitted" true
    (contains_substring generated
       "fmap_scan (Scl.Flat_exec.Chain [ Scl.Flat_exec.Offset 1.0; Scl.Flat_exec.Scale 0.5 ]) \
        Scl.Flat_exec.Add input");
  Alcotest.(check bool) "fmap_fold emitted" true
    (contains_substring generated "fmap_fold (Scl.Flat_exec.Scale 2.0) Scl.Flat_exec.Add");
  (* the kernels run on the caller's float array: no conversion copy is
     emitted, for any shape of flat pipeline.  The deleted module's name
     is spelled in two parts so that CI's grep for it skips this line. *)
  let deleted_module = "Scl.Flat" ^ "." in
  List.iter
    (fun src ->
      Alcotest.(check bool)
        (Printf.sprintf "no %s in the flat source of %S" deleted_module src)
        false
        (contains_substring
           (Codegen.generate_host_flat (if src = "" then Ast.Id else Parser.parse_exn src))
           deleted_module))
    [ flat_pipeline_src; ""; "map fincr"; "map fneg . map fdouble"; "scan fmax"; "fold fadd" ];
  (* the compiled golden leaves its input bitwise unchanged and agrees
     with the reference interpreter bitwise, on both backends *)
  let input = Array.init 5001 (fun i -> float_of_int ((i * 37 mod 512) - 256) *. 0.25) in
  let before = Array.copy input in
  let expected =
    Value.as_float (Ast.eval e (Value.Arr (Array.map (fun x -> Value.Float x) input)))
  in
  let pool = Runtime.Pool.create ~num_domains:2 () in
  Fun.protect
    ~finally:(fun () -> Runtime.Pool.teardown pool)
    (fun () ->
      List.iter
        (fun (fx : Scl.Flat_exec.t) ->
          let got = Generated_pipeline_lib.Generated_pipeline_flat.run_pipeline_flat ~fx input in
          Alcotest.(check bool) (fx.Scl.Flat_exec.name ^ ": generated = reference") true
            (Float.equal expected got);
          Alcotest.(check bool) (fx.Scl.Flat_exec.name ^ ": input unchanged") true
            (Array.for_all2 Float.equal before input))
        [ Scl.Flat_exec.sequential; Scl.Flat_exec.on_pool pool ])

let test_codegen_flat_rejects () =
  let flat_ok e =
    match Codegen.generate_host_flat e with
    | (_ : string) -> true
    | exception Codegen.Not_compilable _ -> false
  in
  (* only the float registry vocabulary compiles *)
  Alcotest.(check bool) "int map rejected" false (flat_ok (Ast.Map Fn.incr));
  Alcotest.(check bool) "int fold rejected" false (flat_ok (Ast.Fold Fn.add));
  Alcotest.(check bool) "rotate rejected" false (flat_ok (Ast.Rotate 2));
  Alcotest.(check bool) "mid-pipeline fold rejected" false
    (flat_ok (Ast.of_chain [ Ast.Fold Fn.fadd; Ast.Map Fn.fincr ]));
  Alcotest.(check bool) "float chain accepted" true
    (flat_ok (Parser.parse_exn flat_pipeline_src))

(* The result or the exception message, so failing runs compare too. *)
let outcome f = match f () with v -> Ok v | exception Value.Type_error m -> Error m

let same_outcome a b =
  match (a, b) with
  | Ok x, Ok y -> Value.bitwise_equal x y
  | Error m, Error m' -> String.equal m m'
  | Ok _, Error _ | Error _, Ok _ -> false

(* Runs [k check], where [check label e v] asserts that Host_exec on the
   sequential and on the pool backends (boxed and flat) gives the
   reference outcome, bitwise. *)
let with_host_backends k =
  let pool = Runtime.Pool.create ~num_domains:2 () in
  Fun.protect
    ~finally:(fun () -> Runtime.Pool.teardown pool)
    (fun () ->
      let backends =
        [
          ("seq", fun e v -> Host_exec.eval e v);
          ( "pool",
            fun e v ->
              Host_exec.eval ~exec:(Scl.Exec.on_pool pool) ~fx:(Scl.Flat_exec.on_pool pool) e v
          );
        ]
      in
      k (fun label e v ->
          let expected = outcome (fun () -> Ast.eval e v) in
          List.iter
            (fun (bname, run) ->
              Alcotest.(check bool)
                (Printf.sprintf "%s: flat %s = reference" label bname)
                true
                (same_outcome expected (outcome (fun () -> run e v))))
            backends))

let floats_of a = Value.Arr (Array.map (fun x -> Value.Float x) a)

(* The Host_exec flat fast path (seq and pool fx backends) must be
   bitwise-identical to the reference interpreter on dyadic float data:
   [Value.bitwise_equal] compares float bit patterns, not within a
   tolerance.  Sizes cross several pool chunks and several 2048-float
   staging blocks with ragged tails. *)
let test_host_flat_bitwise () =
  let pipelines =
    [
      ("fold pipeline", flat_pipeline_src);
      ("scan pipeline", "scan fadd . map fdouble . map fneg");
      ("benchmark chain", "scan fadd . map fhalve . map fdouble . map fincr");
      ("benchmark chain, fold", "fold fadd . map fhalve . map fdouble . map fincr");
      ("chain, max scan", "scan fmax . map fneg . map fincr");
    ]
  in
  let floats n = floats_of (Array.init n (fun i -> float_of_int ((i * 37 mod 512) - 256) *. 0.25)) in
  with_host_backends (fun check ->
      List.iter
        (fun (name, src) ->
          let e = Parser.parse_exn src in
          List.iter
            (fun n -> check (Printf.sprintf "%s n=%d" name n) e (floats n))
            [ 0; 1; 2; 3; 7; 1003; (3 * 2048) + 5; 100_003 ];
          (* a float array whose last element is an Int leaves the flat
             path at that element and must fail exactly as the reference
             does *)
          let a = Value.as_arr (floats 4101) in
          a.(4100) <- Value.Int 1;
          Alcotest.(check bool)
            (name ^ " with a trailing Int: reference raises")
            true
            (Result.is_error (outcome (fun () -> Ast.eval e (Value.Arr a))));
          check (name ^ " with a trailing Int") e (Value.Arr a))
        pipelines)

(* The flat path stores floats in a float array and back: every bit
   pattern must survive, including -0.0, NaN, the infinities and
   subnormals, and the kernels must treat them as the boxed operators
   do.  The input stays below the pool's smallest chunk, so every backend
   combines in the same order; NaN payloads are not defined across
   reassociation. *)
let test_host_flat_special_values () =
  let specials =
    [| -0.0; Float.nan; Float.infinity; Float.neg_infinity; 4.9e-324; -0.0; 0.0; 1.5;
       Float.min_float /. 4.0; -2.5; Float.infinity; -0.0 |]
  in
  with_host_backends (fun check ->
      List.iter
        (fun src ->
          let e = Parser.parse_exn src in
          List.iter
            (fun (what, a) -> check (Printf.sprintf "%s on %s" src what) e (floats_of a))
            [
              ("all specials", specials);
              ("no NaN", Array.of_list (List.filter (fun x -> not (Float.is_nan x)) (Array.to_list specials)));
              ("zeros and subnormals", [| -0.0; 0.0; 4.9e-324; -0.0; -4.9e-324 |]);
            ])
        [
          "map fneg";
          "map fhalve . map fdouble";
          "scan fadd . map fneg . map fincr";
          "scan fmax . map fneg";
          "scan fmin";
          "fold fmax . map fhalve";
          "fold fmin";
          flat_pipeline_src;
        ])

(* An array that is all Float up to index k > 0 and Int from there on
   leaves the flat path during conversion, after allocating; the boxed
   path must then give the reference value, or raise the same
   Type_error. *)
let test_host_flat_int_suffix () =
  let n = 4101 in
  let mixed k =
    Value.Arr
      (Array.init n (fun i -> if i < k then Value.Float (float_of_int (i - 2000) *. 0.25) else Value.Int 1))
  in
  with_host_backends (fun check ->
      List.iter
        (fun src ->
          let e = Parser.parse_exn src in
          List.iter
            (fun k -> check (Printf.sprintf "%s, Int from k=%d" src k) e (mixed k))
            [ 1; 255; 2048; 4100 ])
        [ "map id"; "map fincr"; "map fneg . map fdouble"; "scan fadd . map fhalve"; "fold fmax"; flat_pipeline_src ])

let test_cost_flat_discount () =
  let float_e = Parser.parse_exn "fold fadd . scan fadd . map fdouble" in
  let int_e = Parser.parse_exn "fold add . scan add . map double" in
  let plain = Cost.estimate_pipeline ~procs:8 ~n:65536 float_e in
  let flat = Cost.estimate_pipeline ~flat:true ~procs:8 ~n:65536 float_e in
  Alcotest.(check bool) "flat pricing is strictly cheaper on float legs" true (flat < plain);
  Alcotest.(check (float 0.0)) "int legs are never discounted"
    (Cost.estimate_pipeline ~procs:8 ~n:65536 int_e)
    (Cost.estimate_pipeline ~flat:true ~procs:8 ~n:65536 int_e);
  (* the optimizer accepts and threads the flag *)
  let r = Optimizer.optimize ~flat:true float_e in
  Alcotest.(check bool) "optimize ~flat:true runs" true (r.Optimizer.cost_after <= r.Optimizer.cost_before)

let test_parse_float_registry () =
  Alcotest.(check string) "float pipeline round-trips" flat_pipeline_src
    (Ast.to_string (Parser.parse_exn flat_pipeline_src))

let prop_codegen_accepts_flat_pipelines =
  qtest ~count:100 "every flat registry pipeline is compilable"
    (QCheck.make ~print:Ast.to_string gen_parseable)
    (fun e ->
      (* strip mid-pipeline folds and free-standing nesting stages for this
         property: the parseable generator emits split/combine/mapn in
         arbitrary positions, and codegen only accepts the disciplined
         split .. mapn [maps] .. combine shape — so filter to the flat
         compilable subset *)
      let chain =
        List.filter
          (function
            | Ast.Split _ | Ast.Combine | Ast.Map_nested _ | Ast.Fold _ | Ast.Foldr_compose _
              ->
                false
            | _ -> true)
          (Ast.to_chain e)
      in
      Codegen.compilable (Ast.of_chain chain))

(* The flat target fuses each maximal map run into one kernel call (a
   [Chain] when the run has several maps), absorbed by a following scan or
   fold: one kernel call per scan, per fold, and per map run left at the
   end — and one copying [fmap Id] for the empty pipeline. *)
let gen_flat_stage =
  QCheck.Gen.(
    frequency
      [
        (4, map (fun f -> Ast.Map f) (oneofl [ Fn.id; Fn.fincr; Fn.fhalve; Fn.fdouble; Fn.fneg ]));
        (1, map (fun f -> Ast.Scan f) (oneofl [ Fn.fadd; Fn.fmax; Fn.fmin ]));
      ])

let prop_codegen_flat_one_call_per_run =
  qtest ~count:200 "flat target emits one kernel call per fused map run"
    (QCheck.make ~print:Ast.to_string
       QCheck.Gen.(
         map2
           (fun stages fold -> Ast.of_chain (stages @ Option.to_list fold))
           (list_size (int_range 0 8) gen_flat_stage)
           (option (map (fun f -> Ast.Fold f) (oneofl [ Fn.fadd; Fn.fmax ])))))
    (fun e ->
      let chain = Ast.to_chain e in
      let consumers =
        List.length (List.filter (function Ast.Scan _ | Ast.Fold _ -> true | _ -> false) chain)
      in
      let trailing_run =
        match List.rev chain with [] | Ast.Map _ :: _ -> 1 | _ -> 0
      in
      let src = Codegen.generate_host_flat e in
      let rec count i =
        match String.index_from_opt src i 'f' with
        | None -> 0
        | Some j ->
            let k = "fx.Scl.Flat_exec." in
            (if j + String.length k <= String.length src && String.sub src j (String.length k) = k
             then 1
             else 0)
            + count (j + 1)
      in
      count 0 = consumers + trailing_run)

(* --- chain / printing round trips (on the lib/prop engine) ----------------- *)

(* Random expression *trees* — arbitrary Compose shapes with explicit Ids
   and nested Map_nested bodies — exercising exactly what to_chain must
   normalise away. *)
let rec gen_tree depth : Ast.expr Prop.Gen.t =
  let open Prop.Gen in
  if depth <= 0 then frequency [ (1, return Ast.Id); (4, Prop.Pipe_gen.gen_lp_stage) ]
  else
    frequency
      [
        ( 3,
          let* l = gen_tree (depth - 1) in
          let+ r = gen_tree (depth - 1) in
          Ast.Compose (l, r) );
        (1, map (fun e -> Ast.Map_nested e) (gen_tree (depth - 1)));
        (1, return Ast.Id);
        (3, Prop.Pipe_gen.gen_lp_stage);
      ]

(* Same, without Map_nested: length-preserving on flat arrays, so eval
   round trips can run on random inputs. *)
let rec gen_flat_tree depth : Ast.expr Prop.Gen.t =
  let open Prop.Gen in
  if depth <= 0 then frequency [ (1, return Ast.Id); (4, Prop.Pipe_gen.gen_lp_stage) ]
  else
    frequency
      [
        ( 3,
          let* l = gen_flat_tree (depth - 1) in
          let+ r = gen_flat_tree (depth - 1) in
          Ast.Compose (l, r) );
        (1, return Ast.Id);
        (3, Prop.Pipe_gen.gen_lp_stage);
      ]

let prop_run ?(count = 200) name gen prop =
  match
    Prop.Runner.check ~config:{ Prop.Runner.default with count; seed = 42 } ~gen ~prop ()
  with
  | Prop.Runner.Pass _ -> ()
  | Prop.Runner.Fail f -> Alcotest.fail (name ^ ": " ^ f.Prop.Runner.message)
  | Prop.Runner.Gave_up _ -> Alcotest.fail (name ^ ": gave up")

let stage_strings chain = List.map Ast.to_string chain

let test_chain_roundtrip_prop () =
  prop_run "to_chain . of_chain stable"
    (Prop.Gen.bind (Prop.Gen.int_range 0 4) gen_tree)
    (fun e ->
      let c = Ast.to_chain e in
      let c' = Ast.to_chain (Ast.of_chain c) in
      if stage_strings c = stage_strings c' then Prop.Runner.Pass_case
      else
        Prop.Runner.Fail_case
          (Printf.sprintf "chain changed: [%s] vs [%s] (tree %s)"
             (String.concat "; " (stage_strings c))
             (String.concat "; " (stage_strings c'))
             (Ast.to_string e)))

let test_chain_drops_ids () =
  prop_run "to_chain drops Id and flattens Compose"
    (Prop.Gen.bind (Prop.Gen.int_range 0 4) gen_tree)
    (fun e ->
      let ok = function Ast.Id | Ast.Compose _ -> false | _ -> true in
      if List.for_all ok (Ast.to_chain e) then Prop.Runner.Pass_case
      else Prop.Runner.Fail_case ("Id or Compose in chain of " ^ Ast.to_string e))

let test_chain_roundtrip_eval () =
  let gen =
    let open Prop.Gen in
    let* e = bind (int_range 0 4) gen_flat_tree in
    let* n = int_range 1 20 in
    let+ input = Prop.Pipe_gen.gen_input ~n in
    (e, input)
  in
  prop_run "of_chain . to_chain preserves meaning" gen (fun (e, v) ->
      let e' = Ast.of_chain (Ast.to_chain e) in
      if Value.equal (Ast.eval e v) (Ast.eval e' v) then Prop.Runner.Pass_case
      else Prop.Runner.Fail_case (Ast.to_string e ^ " <> normalised " ^ Ast.to_string e'))

let test_to_string_stable () =
  prop_run "to_string total and normalisation-idempotent"
    (Prop.Gen.bind (Prop.Gen.int_range 0 4) gen_tree)
    (fun e ->
      let norm = Ast.of_chain (Ast.to_chain e) in
      let norm2 = Ast.of_chain (Ast.to_chain norm) in
      if String.length (Ast.to_string e) > 0 && Ast.to_string norm = Ast.to_string norm2 then
        Prop.Runner.Pass_case
      else Prop.Runner.Fail_case ("printing unstable for " ^ Ast.to_string e))

let test_nested_map_chain_roundtrip () =
  (* deep Map_nested towers keep their body structure through the chain view *)
  prop_run "nested bodies survive round trip"
    (let open Prop.Gen in
     let* depth = int_range 1 3 in
     let+ body = gen_tree depth in
     Ast.Map_nested (Ast.Map_nested body))
    (fun e ->
      match Ast.to_chain e with
      | [ Ast.Map_nested _ ] as c ->
          if stage_strings c = stage_strings (Ast.to_chain (Ast.of_chain c)) then
            Prop.Runner.Pass_case
          else Prop.Runner.Fail_case ("nested chain changed for " ^ Ast.to_string e)
      | c ->
          Prop.Runner.Fail_case
            (Printf.sprintf "expected singleton chain, got %d stages" (List.length c)))

let () =
  Alcotest.run "transform"
    [
      ( "interpreter",
        [
          Alcotest.test_case "map" `Quick test_eval_map;
          Alcotest.test_case "compose order" `Quick test_eval_compose_order;
          Alcotest.test_case "fold/scan" `Quick test_eval_fold_scan;
          Alcotest.test_case "foldr_compose" `Quick test_eval_foldr_compose;
          Alcotest.test_case "foldr right-assoc" `Quick test_eval_foldr_non_assoc;
          Alcotest.test_case "communication" `Quick test_eval_communication;
          Alcotest.test_case "split/combine" `Quick test_eval_split_combine;
          Alcotest.test_case "iter_for" `Quick test_eval_iter_for;
          Alcotest.test_case "type errors" `Quick test_eval_type_errors;
          Alcotest.test_case "chain roundtrip" `Quick test_chain_roundtrip;
        ] );
      ( "chain-roundtrip-prop",
        [
          Alcotest.test_case "to_chain/of_chain stable" `Quick test_chain_roundtrip_prop;
          Alcotest.test_case "Id-dropping" `Quick test_chain_drops_ids;
          Alcotest.test_case "eval-preserving" `Quick test_chain_roundtrip_eval;
          Alcotest.test_case "to_string stable" `Quick test_to_string_stable;
          Alcotest.test_case "nested Map_nested chains" `Quick test_nested_map_chain_roundtrip;
        ] );
      ( "rules",
        [
          prop_map_fusion_sound;
          Alcotest.test_case "map fusion fires" `Quick test_map_fusion_fires;
          prop_map_distribution_sound;
          Alcotest.test_case "map distribution fires" `Quick test_map_distribution_fires;
          Alcotest.test_case "associativity guard" `Quick test_map_distribution_respects_associativity;
          prop_send_fusion_sound;
          prop_fetch_fusion_sound;
          prop_fetch_fusion_with_reverse;
          prop_rotate_fusion_sound;
          Alcotest.test_case "rotate fusion" `Quick test_rotate_fusion_result;
          prop_rotate_fetch_fusion_sound;
          Alcotest.test_case "rotate/fetch fuse" `Quick test_rotate_fetch_fuses;
          Alcotest.test_case "rotate cancellation" `Quick test_rotate_cancellation;
          Alcotest.test_case "identity elimination" `Quick test_identity_elim;
          Alcotest.test_case "split/combine elimination" `Quick test_split_combine_elim;
          prop_nested_map_flatten_sound;
          Alcotest.test_case "flattening(map) fires" `Quick test_nested_map_flatten_fires;
          prop_nested_fold_flatten_sound;
          Alcotest.test_case "flattening(fold) fires" `Quick test_nested_fold_flatten_fires;
          prop_iter_unroll_sound;
          Alcotest.test_case "iterFor unroll + fusion" `Quick test_iter_unroll_fuses_rotations;
        ] );
      ( "engine",
        [
          prop_normalize_preserves_semantics;
          prop_normalize_idempotent;
          prop_normalize_never_grows;
        ] );
      ( "cost",
        [
          Alcotest.test_case "fusion improves" `Quick test_cost_fusion_improves;
          Alcotest.test_case "map distribution improves" `Quick test_cost_map_distribution_improves;
          Alcotest.test_case "monotone in n" `Quick test_cost_monotone_in_n;
          Alcotest.test_case "optimizer report" `Quick test_optimizer_report;
        ] );
      ( "sim_exec",
        [
          prop_sim_exec_matches_interpreter;
          Alcotest.test_case "optimized faster on simulator" `Quick test_sim_exec_optimized_is_faster;
          Alcotest.test_case "segmented execution" `Quick test_sim_exec_segmented;
          Alcotest.test_case "segmented fold" `Quick test_sim_exec_segmented_fold;
          Alcotest.test_case "deeper nesting rejected" `Quick test_sim_exec_rejects_deeper_nesting;
          Alcotest.test_case "nested cross-backend" `Quick test_nested_cross_backend;
        ] );
      ( "search",
        [
          Alcotest.test_case "beam beats stalled greedy" `Quick test_search_beats_greedy_on_commuting;
          Alcotest.test_case "makespan within tolerance" `Quick test_search_makespan_not_worse;
          prop_search_never_worse_than_greedy;
          prop_search_sound;
          prop_optimize_idempotent;
        ] );
      ( "commuting",
        [
          prop_commute_sound;
          Alcotest.test_case "enables fusion" `Quick test_commute_enables_fusion;
          Alcotest.test_case "terminates / idempotent" `Quick test_commute_terminates_and_idempotent;
          Alcotest.test_case "maps gathered" `Quick test_commute_moves_all_maps_front;
        ] );
      ( "parser",
        [
          Alcotest.test_case "simple" `Quick test_parse_simple;
          Alcotest.test_case "application order" `Quick test_parse_apply_order;
          Alcotest.test_case "nested" `Quick test_parse_nested;
          Alcotest.test_case "iter" `Quick test_parse_iter;
          Alcotest.test_case "foldr" `Quick test_parse_foldr;
          Alcotest.test_case "shift" `Quick test_parse_shift;
          Alcotest.test_case "errors" `Quick test_parse_errors;
          Alcotest.test_case "error positions" `Quick test_parse_error_position;
          Alcotest.test_case "nested print/parse regression" `Quick
            test_print_parse_nested_regression;
          prop_parse_roundtrip;
          Alcotest.test_case "fused not printable" `Quick test_to_source_rejects_fused;
        ] );
      ( "robustness",
        [
          prop_parser_never_crashes;
          prop_program_parser_never_crashes;
          prop_cost_additive_over_compose;
          prop_optimizer_never_worse;
        ] );
      ( "programs",
        [
          Alcotest.test_case "basic" `Quick test_program_basic;
          Alcotest.test_case "semantics" `Quick test_program_semantics;
          Alcotest.test_case "reference in iter" `Quick test_program_reference_in_iter;
          Alcotest.test_case "errors" `Quick test_program_errors;
          Alcotest.test_case "optimizes across references" `Quick test_program_optimizes_across_references;
        ] );
      ( "codegen",
        [
          Alcotest.test_case "golden file" `Quick test_codegen_golden;
          Alcotest.test_case "host golden file" `Quick test_codegen_host_golden;
          Alcotest.test_case "segmented golden file" `Quick test_codegen_seg_golden;
          Alcotest.test_case "segmented host golden file" `Quick test_codegen_seg_host_golden;
          prop_host_codegen_source_wellformed;
          Alcotest.test_case "foldr rejected until rewritten" `Quick test_codegen_rejects_foldr;
          Alcotest.test_case "segmented region compiles" `Quick test_codegen_compiles_segmented;
          Alcotest.test_case "fold body rejected until flattened" `Quick
            test_codegen_rejects_unflattened_fold;
          Alcotest.test_case "fold must be last" `Quick test_codegen_rejects_mid_fold;
          prop_codegen_accepts_flat_pipelines;
          prop_codegen_flat_one_call_per_run;
        ] );
      ( "flat host tier",
        [
          Alcotest.test_case "flat golden file" `Quick test_codegen_flat_golden;
          Alcotest.test_case "flat target vocabulary" `Quick test_codegen_flat_rejects;
          Alcotest.test_case "host flat fast path bitwise" `Quick test_host_flat_bitwise;
          Alcotest.test_case "cost model flat discount" `Quick test_cost_flat_discount;
          Alcotest.test_case "parser float registry" `Quick test_parse_float_registry;
          Alcotest.test_case "host flat special values bitwise" `Quick
            test_host_flat_special_values;
          Alcotest.test_case "host flat Int suffix falls back" `Quick test_host_flat_int_suffix;
        ] );
    ]
