(* Odd-even transposition sort — the ring network's native sort: P
   compare-split phases between alternating neighbour pairs.  Its
   communication is strictly nearest-neighbour, so unlike the hypercube
   sorts it runs at full efficiency on a ring; the bench contrasts it with
   hyperquicksort when both are priced on a ring topology.

   Correctness note: the Baudet–Stevenson block odd-even theorem (P phases
   suffice for P sorted blocks) requires *equal* block sizes, so the input
   is padded to a multiple of P with +inf sentinels and the padding is
   stripped after the gather — the same discipline as the bitonic sort. *)

open Machine

let sentinel = max_int

let sort_program (data : int array option) (comm : Comm.t) : int array option =
  let p = Comm.size comm in
  let me = Comm.rank comm in
  let total = Comm.bcast comm ~root:0 (Option.map Array.length data) in
  let padded = ((total + p - 1) / p) * p in
  let padded_data =
    Option.map (fun a -> Array.append a (Array.make (padded - total) sentinel)) data
  in
  let dv = Scl_sim.Dvec.scatter comm ~root:0 padded_data in
  let mine = ref (Scl_sim.Dvec.local dv) in
  Seq_kernels.sort_in_place !mine;
  Comm.work_flops comm (Scl_sim.Kernels.sort_flops (Array.length !mine));
  (* P phases; in phase k the pairs (i, i+1) with i ≡ k (mod 2) compare-split:
     the left partner keeps the low half, the right the high half. *)
  for phase = 0 to p - 1 do
    let partner =
      if (me + phase) mod 2 = 0 then me + 1 (* I am the left of the pair *)
      else me - 1
    in
    if partner >= 0 && partner < p then begin
      let theirs : int array = Comm.exchange comm ~partner !mine in
      Comm.work_flops comm (Scl_sim.Kernels.merge_flops (Array.length !mine + Array.length theirs));
      mine := Bitonic.compare_split ~keep_low:(me < partner) !mine theirs
    end
  done;
  match Comm.gather comm ~root:0 !mine with
  | Some chunks ->
      let all = Array.concat (Array.to_list chunks) in
      Some (Array.sub all 0 total)
  | None -> None

let sort_sim ?(cost = Cost_model.ap1000) ?trace ?(topology = Topology.Ring) ~procs
    (data : int array) : int array * Sim.stats =
  if Array.exists (fun x -> x = sentinel) data then
    invalid_arg "Odd_even.sort_sim: max_int keys are reserved as padding sentinels";
  Scl_sim.Spmd.run_collect ?trace ~cost ~topology ~procs (fun comm ->
      sort_program (if Comm.rank comm = 0 then Some data else None) comm)
