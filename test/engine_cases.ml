(* Engine-parameterised cases: each one is a single check written against
   [Spmd.run] or an engine-generic algorithm entry point, run unchanged
   on every backend a suite lists.  test_multicore runs them on sim and
   multicore; test_procs on sim and procs (it may never spawn a domain,
   so nothing here does unless the suite's backend list asks for it).
   The simulator is the oracle where no sequential reference exists. *)

open Machine
module Spmd = Scl_sim.Spmd

type engine = Engine : 's Spmd.backend -> engine

type case = {
  name : string;
  speed : Alcotest.speed_level;
  check : 's. 's Spmd.backend -> unit;
}

let sim = Spmd.sim ()

(* Alcotest labels carry the engine, so a failure names its leg. *)
let label b fmt = Printf.ksprintf (fun s -> Printf.sprintf "%s: %s" (Spmd.name b) s) fmt

let group name cases engines =
  ( name,
    List.map
      (fun c ->
        Alcotest.test_case c.name c.speed (fun () ->
            List.iter (fun (Engine b) -> c.check b) engines))
      cases )

(* --- programs ------------------------------------------------------------ *)

let collective_program (comm : Comm.t) =
  let p = Comm.size comm in
  let me = Comm.rank comm in
  let reduced = Comm.allreduce comm ( + ) (me + 1) in
  let scanned = Comm.scan comm ( + ) (me + 1) in
  let gathered = Comm.allgather comm (me * me) in
  let transposed = Comm.alltoall comm (Array.init p (fun j -> (me * 100) + j)) in
  let sub = Comm.split comm ~color:(me mod 2) ~key:me in
  let sub_sum = Comm.allreduce sub ( + ) me in
  let everything = (reduced, scanned, gathered, transposed, sub_sum) in
  match Comm.gather comm ~root:0 everything with
  | Some all -> Some (Array.to_list all)
  | None -> None

(* The bcast/scatter/gather/allgather battery over boxed payloads; on
   procs the float arrays cross the sockets marshalled, so the values
   must come back bitwise-identical to the simulator's. *)
let bs_program (comm : Comm.t) =
  let p = Comm.size comm in
  let me = Comm.rank comm in
  let b = Comm.bcast comm ~root:0 (if me = 0 then Some "root-word" else None) in
  let sc = Comm.scatter comm ~root:0 (if me = 0 then Some (Array.init p (fun j -> j * 7)) else None) in
  let g = Comm.gather comm ~root:0 (me * 11) in
  let ag = Comm.allgather comm (me + 100) in
  let bf =
    Comm.bcast comm ~root:0
      (if me = 0 then Some (Array.init 5 (fun i -> 1.0 /. float_of_int (i + 1))) else None)
  in
  let sf =
    Comm.scatter comm ~root:0
      (if me = 0 then Some (Array.init p (fun j -> Array.init 3 (fun i -> float_of_int ((3 * j) + i) *. 0.5)))
       else None)
  in
  let gf = Comm.gather comm ~root:0 (Array.init 2 (fun i -> float_of_int ((me * 10) + i))) in
  let agf = Comm.allgather comm [| float_of_int me +. 0.25 |] in
  let everything =
    ( b,
      sc,
      (match g with Some a -> Array.to_list a | None -> []),
      Array.to_list ag,
      bf,
      sf,
      (match gf with Some a -> Array.to_list a | None -> []),
      Array.to_list agf )
  in
  match Comm.gather comm ~root:0 everything with
  | Some all -> Some (Array.to_list all)
  | None -> None

let random_ints ~seed n =
  let rng = Runtime.Xoshiro.of_seed seed in
  Array.init n (fun _ -> Runtime.Xoshiro.int rng 10_000)

(* --- engine equivalence --------------------------------------------------- *)

let same_as_sim b ~procs program fmt =
  let expected, _ = Spmd.run sim ~procs program in
  let got, _ = Spmd.run b ~procs program in
  Printf.ksprintf (fun what -> Alcotest.(check bool) (label b "%s" what) true (got = expected)) fmt

let equivalence =
  [
    {
      name = "collectives p=1/2/4";
      speed = `Quick;
      check =
        (fun b ->
          List.iter
            (fun procs -> same_as_sim b ~procs collective_program "collectives agree at p=%d" procs)
            [ 1; 2; 4 ]);
    };
    {
      name = "bcast/scatter/gather/allgather p=2/4";
      speed = `Quick;
      check =
        (fun b ->
          List.iter
            (fun procs ->
              same_as_sim b ~procs bs_program "bcast/scatter/gather/allgather agree at p=%d" procs)
            [ 2; 4 ]);
    };
    {
      name = "reduce root sweep";
      speed = `Quick;
      check =
        (fun b ->
          (* every root must see values folded in true rank order (the
             rotated-root ordering bug) *)
          let procs = 4 in
          let expected = String.concat "" (List.init procs string_of_int) in
          for root = 0 to procs - 1 do
            let v, _ =
              Spmd.run b ~procs (fun c -> Comm.reduce c ~root ( ^ ) (string_of_int (Comm.rank c)))
            in
            Alcotest.(check string) (label b "root=%d" root) expected v
          done);
    };
    {
      name = "hyperquicksort p=1/2/4";
      speed = `Quick;
      check =
        (fun b ->
          let data = random_ints ~seed:1995 800 in
          let reference = Array.copy data in
          Array.sort compare reference;
          List.iter
            (fun procs ->
              let got, _ = Algorithms.Hyperquicksort.sort b ~procs data in
              Alcotest.(check (array int)) (label b "sorted at p=%d" procs) reference got)
            [ 1; 2; 4 ]);
    };
    {
      name = "hyperquicksort leaves caller data p=1/2/4";
      speed = `Quick;
      check =
        (fun b ->
          (* each rank sorts its own scattered copy in place *)
          let data = random_ints ~seed:12 600 in
          let saved = Array.copy data in
          List.iter
            (fun procs ->
              let _ = Algorithms.Hyperquicksort.sort b ~procs data in
              Alcotest.(check (array int)) (label b "data unchanged at p=%d" procs) saved data)
            [ 1; 2; 4 ]);
    };
    {
      name = "cannon and summa";
      speed = `Quick;
      check =
        (fun b ->
          let n = 12 in
          let a = Algorithms.Cannon.random_matrix ~seed:7 n in
          let m = Algorithms.Cannon.random_matrix ~seed:8 n in
          let sim_c, _ = Algorithms.Cannon.multiply sim ~grid:2 a m in
          let c, _ = Algorithms.Cannon.multiply b ~grid:2 a m in
          Alcotest.(check bool) (label b "cannon blocks agree") true (c = sim_c);
          let s, _ = Algorithms.Summa.multiply b ~grid:2 a m in
          Alcotest.(check bool) (label b "cannon = summa") true (s = c));
    };
    {
      name = "jacobi/heat2d/cg";
      speed = `Slow;
      check =
        (fun b ->
          (* bitwise-identical fixed points on every engine: same program
             body, same collective trees, same float operation order *)
          let f = Array.make 32 1.0 in
          let solve_j b = Algorithms.Jacobi.solve ~tol:1e-6 ~max_iter:500 b ~procs:4 f ~left:0.0 ~right:1.0 in
          let j_sim, _ = solve_j sim and j, _ = solve_j b in
          Alcotest.(check bool) (label b "jacobi solutions identical") true
            (j.Algorithms.Jacobi.solution = j_sim.Algorithms.Jacobi.solution);
          Alcotest.(check int) (label b "jacobi same iteration count")
            j_sim.Algorithms.Jacobi.iterations j.Algorithms.Jacobi.iterations;
          let hf = Algorithms.Heat2d.manufactured_f 12 in
          let h_sim, _ = Algorithms.Heat2d.solve ~tol:1e-4 ~max_iter:300 sim ~procs:4 hf in
          let h, _ = Algorithms.Heat2d.solve ~tol:1e-4 ~max_iter:300 b ~procs:4 hf in
          Alcotest.(check bool) (label b "heat2d fields identical") true
            (h.Algorithms.Heat2d.solution = h_sim.Algorithms.Heat2d.solution);
          let rhs = Array.init 64 (fun i -> float_of_int (i mod 7) /. 7.0) in
          let c_sim, _ = Algorithms.Cg.solve ~tol:1e-8 ~max_iter:200 sim ~procs:4 rhs in
          let c, _ = Algorithms.Cg.solve ~tol:1e-8 ~max_iter:200 b ~procs:4 rhs in
          Alcotest.(check bool) (label b "cg solutions identical") true
            (c.Algorithms.Cg.solution = c_sim.Algorithms.Cg.solution);
          Alcotest.(check int) (label b "cg same iteration count") c_sim.Algorithms.Cg.iterations
            c.Algorithms.Cg.iterations);
    };
    {
      name = "dynamic farm (recv_any)";
      speed = `Quick;
      check =
        (fun b ->
          (* recv_any at the master; results are indexed, so a
             nondeterministic interleaving does not show *)
          let spec = Algorithms.Farm_sim.skewed_spec ~njobs:40 ~skew:8 in
          let got, _ = Algorithms.Farm_sim.dynamic b ~procs:4 spec in
          Alcotest.(check (array int)) (label b "all jobs done once") (Array.init 40 (fun i -> i * i)) got);
    };
  ]

(* --- the collect rule ------------------------------------------------------ *)

let collect =
  [
    {
      name = "lowest rank's value";
      speed = `Quick;
      check =
        (fun b ->
          (* every rank answers: the lowest one wins, whichever finishes last *)
          let v, _ = Spmd.run b ~procs:4 (fun c -> Some (Comm.rank c)) in
          Alcotest.(check int) (label b "all ranks Some") 0 v;
          let v, _ = Spmd.run b ~procs:4 (fun c -> if Comm.rank c = 2 then Some 2 else None) in
          Alcotest.(check int) (label b "only rank 2 Some") 2 v;
          match Spmd.run b ~procs:4 (fun _ -> (None : int option)) with
          | _ -> Alcotest.fail (label b "expected Invalid_argument")
          | exception Invalid_argument msg ->
              Alcotest.(check bool) (label b "names Spmd.run") true
                (String.length msg >= 8 && String.sub msg 0 8 = "Spmd.run"));
    };
  ]

(* --- the crash-tolerant farm ------------------------------------------------ *)

let crashed : type s. s Spmd.backend -> s -> int list option =
 fun b stats -> match b with Spmd.Procs -> Some stats.Procs.crashed | _ -> None

let farm =
  let expected njobs = Array.init njobs (fun i -> i * i) in
  [
    {
      name = "dynamic farm p=2/4";
      speed = `Quick;
      check =
        (fun b ->
          List.iter
            (fun procs ->
              let spec = Algorithms.Farm_sim.skewed_spec ~njobs:24 ~skew:6 in
              let got, stats = Algorithms.Farm_sim.dynamic b ~procs spec in
              Alcotest.(check (array int)) (label b "all jobs done once at p=%d" procs) (expected 24) got;
              match crashed b stats with
              | Some c -> Alcotest.(check (list int)) (label b "no crashes") [] c
              | None -> ())
            [ 2; 4 ]);
    };
    {
      name = "survives chaos worker crash";
      speed = `Quick;
      check =
        (fun b ->
          (* rank 2 fail-stops on its 2nd communication op — the receive
             of its first deal, so it dies holding whatever the master
             dealt it (on procs, a process dying with its sockets); the
             master's grace timeouts detect the silence and re-deal its
             job.  A later crash point would be scheduling-dependent on
             the real engines: jobs cost no wall time there, so on a
             loaded host ranks 1 and 3 can drain the farm before rank 2
             reaches it. *)
          let spec = Algorithms.Farm_sim.skewed_spec ~njobs:24 ~skew:6 in
          let chaos = { Chaos.none with Chaos.crashes = [ (2, 2) ] } in
          let got, stats = Algorithms.Farm_sim.dynamic ~grace:0.5 ~chaos b ~procs:4 spec in
          Alcotest.(check (array int)) (label b "all jobs done exactly once") (expected 24) got;
          match crashed b stats with
          | Some c -> Alcotest.(check (list int)) (label b "the crash is recorded") [ 2 ] c
          | None -> ());
    };
    {
      name = "all workers lost fails loudly";
      speed = `Quick;
      check =
        (fun b ->
          (* every worker dies: with grace armed the master must fail
             loudly rather than wait forever *)
          let spec = Algorithms.Farm_sim.skewed_spec ~njobs:12 ~skew:4 in
          let chaos = { Chaos.none with Chaos.crashes = [ (1, 3); (2, 3); (3, 3) ] } in
          match Algorithms.Farm_sim.dynamic ~grace:0.4 ~chaos b ~procs:4 spec with
          | _ -> Alcotest.fail (label b "expected loud failure")
          | exception Failure msg ->
              let needle = "all workers lost" in
              let n = String.length needle and m = String.length msg in
              let rec has i = i + n <= m && (String.sub msg i n = needle || has (i + 1)) in
              Alcotest.(check bool) (label b "all-lost reported") true (has 0));
    };
  ]

(* --- what one run hands back ------------------------------------------------ *)

let total_msgs : type s. s Spmd.backend -> s -> int =
 fun b stats ->
  match b with
  | Spmd.Sim _ -> stats.Sim.total_msgs
  | Spmd.Multicore _ -> stats.Multicore.total_msgs
  | Spmd.Procs -> stats.Procs.total_msgs

(* Each rank passes its rank one step round the ring. *)
let ring_program (comm : Comm.t) =
  let p = Comm.size comm and me = Comm.rank comm in
  Comm.send comm ~dest:((me + 1) mod p) me;
  let got : int = Comm.recv comm ~src:((me + p - 1) mod p) () in
  Comm.gather comm ~root:0 got

let float_bits = List.map Int64.bits_of_float

let runner =
  [
    {
      name = "stats count a ring's messages";
      speed = `Quick;
      check =
        (fun b ->
          (* the typed stats are the engine's own: each counts the
             ring's p point-to-point sends, and nothing in the runner
             adds traffic of its own *)
          List.iter
            (fun procs ->
              let expected = Array.init procs (fun r -> (r + procs - 1) mod procs) in
              let got, stats = Spmd.run b ~procs ring_program in
              Alcotest.(check (array int)) (label b "left neighbours at p=%d" procs) expected got;
              let _, base = Spmd.run b ~procs (fun c -> Comm.gather c ~root:0 (Comm.rank c)) in
              Alcotest.(check int)
                (label b "ring sends counted at p=%d" procs)
                procs
                (total_msgs b stats - total_msgs b base))
            [ 2; 4 ]);
    };
    {
      name = "topology keeps values";
      speed = `Quick;
      check =
        (fun b ->
          (* the machine shape prices hops on the simulator and is
             ignored elsewhere; values never depend on it *)
          let expected, _ = Spmd.run sim ~procs:4 collective_program in
          List.iter
            (fun topology ->
              let got, _ = Spmd.run ~topology b ~procs:4 collective_program in
              Alcotest.(check bool)
                (label b "values under %s" (Topology.to_string topology))
                true (got = expected))
            Topology.[ Complete; Ring; Star; Hypercube; Torus2d (2, 2) ]);
    };
    {
      name = "result crosses intact";
      speed = `Quick;
      check =
        (fun b ->
          (* the collected value comes back bit for bit: signed zeros,
             NaN payloads and infinities included (on procs it is
             marshalled across a socket) *)
          let floats = [ -0.0; 0.0; Float.nan; Float.infinity; Float.neg_infinity; 1e-310; Float.pi ] in
          let v, _ =
            Spmd.run b ~procs:3 (fun c ->
                let r = Comm.rank c in
                if r = 1 then Some ("rank-1", Array.of_list floats, [ r; r * 10 ]) else None)
          in
          let s, fs, ints = v in
          Alcotest.(check string) (label b "string") "rank-1" s;
          Alcotest.(check (list int64)) (label b "float bits") (float_bits floats)
            (float_bits (Array.to_list fs));
          Alcotest.(check (list int)) (label b "ints") [ 1; 10 ] ints);
    };
  ]

(* --- entry points validate before they run ---------------------------------- *)

(* [f] must raise [Invalid_argument] whose message starts with [prefix];
   the check runs in the caller, so no engine is ever started. *)
let rejects b what prefix f =
  match f () with
  | _ -> Alcotest.fail (label b "%s: expected Invalid_argument" what)
  | exception Invalid_argument msg ->
      let n = String.length prefix in
      Alcotest.(check string) (label b "%s: message" what) prefix
        (if String.length msg >= n then String.sub msg 0 n else msg)

let validation =
  let ok = Algorithms.Cannon.random_matrix ~seed:3 6 in
  let ragged = Array.init 6 (fun i -> Array.make (if i = 4 then 5 else 6) 1.0) in
  let seven = Algorithms.Cannon.random_matrix ~seed:4 7 in
  [
    {
      name = "cannon/summa bad shapes";
      speed = `Quick;
      check =
        (fun b ->
          let cannon = Algorithms.Cannon.multiply b and summa = Algorithms.Summa.multiply b in
          rejects b "cannon ragged" "Cannon.multiply" (fun () -> cannon ~grid:2 ragged ok);
          rejects b "cannon grid 0" "Cannon.multiply" (fun () -> cannon ~grid:0 ok ok);
          rejects b "cannon grid 4 on n=6" "Cannon.multiply" (fun () -> cannon ~grid:4 ok ok);
          rejects b "cannon 6x6 by 7x7" "Cannon.multiply" (fun () -> cannon ~grid:1 ok seven);
          rejects b "summa ragged" "Summa" (fun () -> summa ~grid:2 ok ragged);
          rejects b "summa grid 0" "Summa" (fun () -> summa ~grid:0 ok ok);
          rejects b "summa grid 4 on n=6" "Summa" (fun () -> summa ~grid:4 ok ok);
          rejects b "summa 6x6 by 7x7" "Summa" (fun () -> summa ~grid:1 ok seven));
    };
    {
      name = "heat2d non-square grid";
      speed = `Quick;
      check =
        (fun b ->
          rejects b "heat2d ragged" "Heat2d.solve" (fun () ->
              Algorithms.Heat2d.solve b ~procs:2 ragged));
    };
    {
      name = "hqs and farm bad procs";
      speed = `Quick;
      check =
        (fun b ->
          let data = random_ints ~seed:5 20 in
          List.iter
            (fun procs ->
              rejects b (Printf.sprintf "hqs p=%d" procs) "Hyperquicksort.sort" (fun () ->
                  Algorithms.Hyperquicksort.sort b ~procs data))
            [ 0; 3; 6 ];
          let spec = Algorithms.Farm_sim.skewed_spec ~njobs:4 ~skew:2 in
          List.iter
            (fun procs ->
              rejects b (Printf.sprintf "farm p=%d" procs) "Farm_sim.dynamic" (fun () ->
                  Algorithms.Farm_sim.dynamic b ~procs spec))
            [ 0; 1 ]);
    };
  ]
