(* Sample sort (PSRS — parallel sorting by regular sampling): the era's
   strongest practical hypercube-independent parallel sort, implemented as
   the baseline the paper's "compares well with the best speedup available
   for this problem" remark appeals to.

   Host rendering with SCL skeletons; simulator rendering with one
   all-to-all bucket exchange. *)

open Scl

(* Regular samples: p values at stride len/p from a sorted chunk. *)
let regular_samples p (sorted : int array) : int array =
  let n = Array.length sorted in
  if n = 0 then [||]
  else Array.init p (fun k -> sorted.(min (n - 1) (k * n / p)))

(* Splitters: sort the gathered samples, take every p-th. *)
let choose_splitters p (samples : int array) : int array =
  let s = Seq_kernels.quicksort samples in
  let m = Array.length s in
  (* No samples means no data anywhere: any splitters partition the empty
     input, but the bucket count must still be p. *)
  if m = 0 then Array.make (max 0 (p - 1)) 0
  else Array.init (p - 1) (fun k -> s.(min (m - 1) ((k + 1) * m / p)))

(* Cut a sorted chunk into p buckets by the splitters. *)
let bucketize (splitters : int array) (sorted : int array) : int array array =
  let p = Array.length splitters + 1 in
  let rest = ref sorted in
  let out = Array.make p [||] in
  for k = 0 to p - 2 do
    let lo, hi = Seq_kernels.split_at splitters.(k) !rest in
    out.(k) <- lo;
    rest := hi
  done;
  out.(p - 1) <- !rest;
  out

(* --- host-SCL version -------------------------------------------------------- *)

let sort_scl ?(exec = Exec.sequential) ~parts (a : int array) : int array =
  if parts <= 0 then invalid_arg "Sample_sort.sort_scl: parts must be positive";
  let p = parts in
  (* 1. partition + local sort (farm of SEQ_QUICKSORT) *)
  let sorted = Elementary.map ~exec Seq_kernels.quicksort (Partition.apply (Partition.Block p) a) in
  (* 2. regular sampling, gathered at the conceptual root *)
  let samples =
    Array.concat (Par_array.to_list (Elementary.map ~exec (regular_samples p) sorted))
  in
  let splitters = choose_splitters p samples in
  (* 3. bucket exchange: an all-to-all at configuration level *)
  let buckets = Elementary.map ~exec (bucketize splitters) sorted in
  let exchanged =
    Par_array.init p (fun dest ->
        Array.concat (List.map (fun src -> (Par_array.get buckets src).(dest)) (List.init p Fun.id)))
  in
  (* 4. local merge (resort of the received, already-mostly-sorted runs) *)
  let final = Elementary.map ~exec Seq_kernels.quicksort exchanged in
  Array.concat (Par_array.to_list final)

(* --- simulator version -------------------------------------------------------- *)

open Machine

let psrs_program (data : int array option) (comm : Comm.t) : int array option =
  let p = Comm.size comm in
  let dv = Scl_sim.Dvec.scatter comm ~root:0 data in
  let sorted = Scl_sim.Dvec.local dv in
  Seq_kernels.sort_in_place sorted;
  Comm.work_flops comm (Scl_sim.Kernels.sort_flops (Array.length sorted));
  (* samples to root, splitters back *)
  let samples = regular_samples p sorted in
  let gathered = Comm.gather comm ~root:0 samples in
  let splitters =
    Comm.bcast comm ~root:0
      (Option.map
         (fun chunks ->
           let all = Array.concat (Array.to_list chunks) in
           Comm.work_flops comm (Scl_sim.Kernels.sort_flops (Array.length all));
           choose_splitters p all)
         gathered)
  in
  Comm.work_flops comm (Scl_sim.Kernels.binary_search_flops (Array.length sorted) * p);
  let buckets = bucketize splitters sorted in
  let received = Comm.alltoall comm buckets in
  let mine = Array.concat (Array.to_list received) in
  Comm.work_flops comm (Scl_sim.Kernels.sort_flops (Array.length mine));
  Seq_kernels.sort_in_place mine;
  Comm.gather comm ~root:0 mine |> Option.map (fun chunks -> Array.concat (Array.to_list chunks))

let sort_sim ?(cost = Cost_model.ap1000) ?trace ~procs (data : int array) :
    int array * Sim.stats =
  Scl_sim.Spmd.run_collect ?trace ~cost ~procs (fun comm ->
      psrs_program (if Comm.rank comm = 0 then Some data else None) comm)
