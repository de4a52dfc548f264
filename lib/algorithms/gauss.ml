(* Parallel linear solver — the paper's first Section 3 example: Gauss–
   Jordan elimination with partial pivoting, columns distributed, the main
   loop written with iterFor, each step a map UPDATE over an
   applybrdcast PARTIALPIVOT — plus the simulator rendering and checks
   against the sequential baseline.

   The system is carried as the augmented matrix (A | b) stored column-wise
   (n + 1 columns of length n); after n elimination steps A becomes the
   identity and the b-column is the solution. *)

open Scl

(* Augmented column-wise representation. *)
let augment (a : float array array) (b : float array) : float array array =
  let n = Array.length a in
  Array.iter (fun r -> if Array.length r <> n then invalid_arg "Gauss: non-square matrix") a;
  if Array.length b <> n then invalid_arg "Gauss: rhs length mismatch";
  Array.init (n + 1) (fun j -> if j = n then Array.copy b else Array.init n (fun i -> a.(i).(j)))

(* --- host-SCL version (paper Section 3) --------------------------------- *)

let solve_scl ?(exec = Exec.sequential) ?(parts = 4) (a : float array array) (b : float array) :
    float array =
  let n = Array.length a in
  if n = 0 then [||]
  else begin
    let cols = augment a b in
    let pat = Partition.Block parts in
    let da = Partition.apply pat cols in
    (* Global column i lives in part [owner] at local offset [local_ix]
       (block pattern: offset = i - block start). *)
    let owner i = Partition.assign pat ~n:(n + 1) i in
    let bounds = Scl.Partition.block_bounds ~n:(n + 1) ~p:parts in
    let local_ix i = i - bounds.(owner i) in
    let elim_pivot i x =
      (* applybrdcast (PARTIALPIVOT i): the owning processor computes the
         pivot info from its copy of column i and broadcasts it. *)
      let info_of chunk = Seq_kernels.make_pivot_info ~row:i chunk.(local_ix i) in
      let pivoted = Communication.applybrdcast ~exec info_of (owner i) x in
      (* map (UPDATE i): all processors update all their columns. *)
      Elementary.map ~exec
        (fun (info, chunk) -> Array.map (Seq_kernels.update ~row:i info) chunk)
        pivoted
    in
    let final = Computational.iter_for n elim_pivot da in
    let cols' = Config.gather pat final in
    cols'.(n)
  end

(* --- simulated distributed-memory version -------------------------------- *)

open Machine

let gauss_program (cols : float array array option) (comm : Comm.t) : float array option =
  let p = Comm.size comm in
  let n_plus_1 = Comm.bcast comm ~root:0 (Option.map Array.length cols) in
  let n = n_plus_1 - 1 in
  (* Block-distribute the n+1 columns. *)
  let bounds = Scl.Partition.block_bounds ~n:n_plus_1 ~p in
  let me = Comm.rank comm in
  let chunks =
    Option.map
      (fun cs -> Array.init p (fun k -> Array.sub cs bounds.(k) (bounds.(k + 1) - bounds.(k))))
      cols
  in
  let mine = ref (Comm.scatter comm ~root:0 chunks) in
  let my_lo = bounds.(me) in
  let owner g = Scl_sim.Dvec.owner_of ~total:n_plus_1 ~parts:p g in
  for i = 0 to n - 1 do
    (* PARTIALPIVOT at the owner of column i, broadcast of the pivot info. *)
    let o = owner i in
    let info =
      if me = o then begin
        Comm.work_flops comm (Scl_sim.Kernels.partial_pivot_flops (n - i));
        Some (Seq_kernels.make_pivot_info ~row:i !mine.(i - bounds.(o)))
      end
      else None
    in
    let info = Comm.bcast comm ~root:o info in
    (* UPDATE every local column. *)
    Comm.work_flops comm (Array.length !mine * Scl_sim.Kernels.column_update_flops n);
    mine := Array.map (Seq_kernels.update ~row:i info) !mine
  done;
  ignore my_lo;
  (* The solution is the last column; its owner sends it to the root. *)
  let last_owner = owner n in
  if me = last_owner then begin
    let x = !mine.(n - bounds.(last_owner)) in
    if last_owner = 0 then Some x
    else begin
      Comm.send comm ~dest:0 x;
      None
    end
  end
  else if me = 0 then Some (Comm.recv comm ~src:last_owner ())
  else None

let solve_sim ?(cost = Cost_model.ap1000) ?trace ~procs (a : float array array)
    (b : float array) : float array * Sim.stats =
  if Array.length a = 0 then invalid_arg "Gauss.solve_sim: empty system";
  let cols = augment a b in
  Scl_sim.Spmd.run (Scl_sim.Spmd.sim ?trace ~cost ()) ~procs (fun comm ->
      gauss_program (if Comm.rank comm = 0 then Some cols else None) comm)

(* Well-conditioned random test systems: diagonally dominant matrices. *)
let random_system ~seed n : float array array * float array =
  let rng = Runtime.Xoshiro.of_seed seed in
  let a =
    Array.init n (fun i ->
        Array.init n (fun j ->
            let v = Runtime.Xoshiro.float rng 2.0 -. 1.0 in
            if i = j then v +. (float_of_int n *. 2.0) else v))
  in
  let b = Array.init n (fun _ -> Runtime.Xoshiro.float rng 10.0 -. 5.0) in
  (a, b)
