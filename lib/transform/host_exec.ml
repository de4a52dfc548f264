(* Run a skeleton pipeline on the host Scl skeletons. Every array primitive
   goes through the Scl layer so the pipeline actually exercises the chosen
   Exec backend (sequential or pool). Host skeletons report bad movements
   with Invalid_argument — translated here to Value.Type_error so the
   backends share one error taxonomy (the reference interpreter raises
   Type_error on the same inputs).

   Unlike Ast.eval, execution is fusion-aware: the pipeline is walked as a
   chain (application order) and maximal runs of [Map] stages are composed
   into one closure, dispatched to the fused Exec primitives — a map run
   ending in [Fold] becomes one [map_fold] pass, ending in [Scan] one
   [map_scan] pass, and a bare multi-map run a single [map_compose]
   traversal.  On all-float data a run of recognised float primitives
   instead becomes one first-order [Flat_exec.Chain] on the unboxed flat
   kernels (see the flat fast path below).  No intermediate Value.Arr is
   materialised between fused stages.  Fusion is meaning-preserving by
   construction (same functions, same application order per element);
   the differential oracle locks this against the reference
   interpreter.

   Nested pipelines execute on a segmented representation: between [Split]
   and [Combine] the value is a flat payload plus a segment-size
   descriptor, so [Split] never copies (the descriptor is just block
   bounds over the existing array) and [Combine] is the payload itself —
   the host-side mirror of the flattening rules. Shapes outside the
   one-level discipline (doubly nested splits, group-level movements)
   fall back to the materialised evaluator, which handles every case the
   reference interpreter does. *)

let wrap name f =
  try f () with Invalid_argument m -> Value.type_error "%s: %s" name m

let pa v = Scl.Par_array.unsafe_of_array (Value.as_arr v)
let arr a = Value.Arr (Scl.Par_array.unsafe_to_array a)

(* Compose a run of map stages, first stage innermost. *)
let compose_run fns x = List.fold_left (fun v (f : Fn.t) -> f.Fn.apply v) x fns

(* --- flat fast path --------------------------------------------------------

   When a maximal map run (and its fold/scan consumer, if any) consists
   entirely of [Flat_fns]-recognised float primitives AND the value is an
   all-float array, the run dispatches to the unboxed [Scl.Flat_exec]
   kernels: one conversion to a [float array] (the representation the
   SPMD programs use too; OCaml stores it unboxed), the fused kernel, one
   conversion back.  A multi-map run fuses to a first-order
   [Flat_exec.Chain] of its stages, which the kernels apply stage by stage
   over cache-sized blocks with monomorphic loops.  Bitwise-identical to
   the boxed path by construction: the same float operations are applied
   to the same elements in the same order as [compose_run] applies them
   over boxed values.

   Both conversions are single passes and stay sequential.  Boxing the
   result allocates two blocks per element; spreading that over the pool
   with [Exec.pinit] measured about 3x slower end to end (0.38 s against
   0.13 s per 10^6 floats, pipeline benchmark, 2-CPU Xeon), because every
   minor collection on OCaml 5 stops all domains. *)

let flat_ops_of fns =
  let rec go acc = function
    | [] -> Some (List.rev acc)
    | f :: tl -> (
        match Flat_fns.fun1_of f with Some op -> go (op :: acc) tl | None -> None)
  in
  go [] fns

let fuse_ops = function
  | [] -> Scl.Flat_exec.Id
  | [ op ] -> op
  | ops -> Scl.Flat_exec.Chain ops

(* One pass over the array straight into a [float array]; [None] at the
   first element that is not a [Float] (before allocating, when that is
   the first element). *)
let flat_of_value v =
  match v with
  | Value.Arr a when Array.length a = 0 || (match a.(0) with Value.Float _ -> true | _ -> false) ->
      let n = Array.length a in
      let fa = Array.create_float n in
      let rec fill i =
        if i = n then Some fa
        else
          match Array.unsafe_get a i with
          | Value.Float x ->
              Array.unsafe_set fa i x;
              fill (i + 1)
          | Value.Int _ | Value.Pair _ | Value.Arr _ -> None
      in
      fill 0
  | _ -> None

let value_of_flat (fa : float array) =
  Value.Arr (Array.init (Array.length fa) (fun i -> Value.Float (Array.unsafe_get fa i)))

(* Try to run [map fns . consumer] (consumer = head of [tl]) on the flat
   tier; [Some (result, remaining_chain)] on success. Empty-array edge
   cases keep the boxed path's behaviour exactly (fold: Type_error; scan:
   empty result) by bailing out to it. *)
let flat_dispatch ~(fx : Scl.Flat_exec.t) fns tl v :
    (Value.t * Ast.expr list) option =
  match flat_ops_of fns with
  | None -> None
  | Some ops -> (
      match flat_of_value v with
      | None -> None
      | Some fa -> (
          let op1 = fuse_ops ops in
          match tl with
          | Ast.Fold op :: tl' when Flat_fns.fun2_of op <> None && Array.length fa > 0 ->
              let op2 = Option.get (Flat_fns.fun2_of op) in
              Some (Value.Float (fx.Scl.Flat_exec.fmap_fold op1 op2 fa), tl')
          | Ast.Scan op :: tl' when Flat_fns.fun2_of op <> None && Array.length fa > 0 ->
              let op2 = Option.get (Flat_fns.fun2_of op) in
              Some (value_of_flat (fx.Scl.Flat_exec.fmap_scan op1 op2 fa), tl')
          | tl' ->
              if ops = [] then None (* bare consumer was not eligible: no work here *)
              else Some (value_of_flat (fx.Scl.Flat_exec.fmap op1 fa), tl')))

(* --- segmented values ------------------------------------------------------

   The host-side segment descriptor: a flat payload with per-segment
   sizes. [reify] materialises the nested array the reference interpreter
   would have built; the segments are exactly the [Split] block groups, so
   reify-then-eval and segmented-eval agree by construction. *)

type hval = Plain of Value.t | Seg of Value.t array * int array

let seg_starts sizes =
  let s = Array.length sizes in
  let starts = Array.make (s + 1) 0 in
  for j = 0 to s - 1 do
    starts.(j + 1) <- starts.(j) + sizes.(j)
  done;
  starts

let reify = function
  | Plain v -> v
  | Seg (payload, sizes) ->
      let starts = seg_starts sizes in
      Value.Arr
        (Array.init (Array.length sizes) (fun j ->
             Value.Arr (Array.sub payload starts.(j) sizes.(j))))

let is_nested_stage = function
  | Ast.Split _ | Ast.Combine | Ast.Map_nested _ -> true
  | _ -> false

let rec eval_node ~exec ~fx (e : Ast.expr) (v : Value.t) : Value.t =
  match e with
  | Ast.Id -> v
  | Ast.Compose _ -> eval_chain ~exec ~fx (Ast.to_chain e) v
  | Ast.Map f -> wrap "map" (fun () -> arr (Scl.Elementary.map ~exec f.Fn.apply (pa v)))
  | Ast.Imap f ->
      wrap "imap" (fun () ->
          arr (Scl.Elementary.imap ~exec (fun i x -> f.Fn.apply2 (Value.Int i) x) (pa v)))
  | Ast.Fold f ->
      let a = pa v in
      if Scl.Par_array.length a = 0 then Value.type_error "fold: empty array";
      wrap "fold" (fun () -> Scl.Elementary.fold ~exec f.Fn.apply2 a)
  | Ast.Scan f ->
      let a = pa v in
      if Scl.Par_array.length a = 0 then Value.Arr [||]
      else wrap "scan" (fun () -> arr (Scl.Elementary.scan ~exec f.Fn.apply2 a))
  | Ast.Foldr_compose (f, g) ->
      (* Inherently sequential source pattern; computed directly, as on the
         simulator's root processor. *)
      let a = Value.as_arr v in
      if Array.length a = 0 then Value.type_error "foldr: empty array";
      let acc = ref (g.Fn.apply a.(Array.length a - 1)) in
      for i = Array.length a - 2 downto 0 do
        acc := f.Fn.apply2 (g.Fn.apply a.(i)) !acc
      done;
      !acc
  | Ast.Send f ->
      let a = pa v in
      let n = Scl.Par_array.length a in
      if n = 0 then v
      else
        wrap "send" (fun () -> arr (Scl.Communication.send_one ~exec (fun i -> f.Fn.iapply ~n i) a))
  | Ast.Fetch f ->
      let a = pa v in
      let n = Scl.Par_array.length a in
      wrap "fetch" (fun () -> arr (Scl.Communication.fetch ~exec (fun i -> f.Fn.iapply ~n i) a))
  | Ast.Rotate k ->
      let a = pa v in
      if Scl.Par_array.length a = 0 then v
      else wrap "rotate" (fun () -> arr (Scl.Communication.rotate ~exec k a))
  | Ast.Split p ->
      if p <= 0 then Value.type_error "split: non-positive part count";
      wrap "split" (fun () ->
          let groups = Scl.Partition.split (Scl.Partition.Block p) (pa v) in
          Value.Arr (Array.map (fun g -> arr g) (Scl.Par_array.unsafe_to_array groups)))
  | Ast.Combine ->
      wrap "combine" (fun () ->
          let groups = Value.as_arr v in
          let nested =
            Scl.Par_array.unsafe_of_array
              (Array.map (fun g -> Scl.Par_array.unsafe_of_array (Value.as_arr g)) groups)
          in
          arr (Scl.Partition.combine nested))
  | Ast.Map_nested body ->
      let chain = Ast.to_chain body in
      wrap "map_nested" (fun () ->
          arr (Scl.Elementary.map ~exec (fun g -> eval_chain ~exec ~fx chain g) (pa v)))
  | Ast.Iter_for (k, body) ->
      if k < 0 then Value.type_error "iterFor: negative count";
      let chain = Ast.to_chain body in
      let acc = ref v in
      for _ = 1 to k do
        acc := eval_chain ~exec ~fx chain !acc
      done;
      !acc

and eval_chain ~exec ~fx (chain : Ast.expr list) (v : Value.t) : Value.t =
  match chain with
  | [] -> v
  | Ast.Map f :: rest ->
      (* Collect the maximal run of consecutive maps. *)
      let rec collect acc = function
        | Ast.Map g :: tl -> collect (g :: acc) tl
        | tl -> (List.rev acc, tl)
      in
      let fns, tl = collect [ f ] rest in
      let g = compose_run fns in
      (match flat_dispatch ~fx fns tl v with
      | Some (r, tl') -> eval_chain ~exec ~fx tl' r
      | None -> (
      match tl with
      | Ast.Fold op :: tl' ->
          let a = pa v in
          if Scl.Par_array.length a = 0 then Value.type_error "fold: empty array";
          let r = wrap "fold" (fun () -> Scl.Elementary.map_fold ~exec op.Fn.apply2 g a) in
          eval_chain ~exec ~fx tl' r
      | Ast.Scan op :: tl' ->
          let a = pa v in
          let r =
            if Scl.Par_array.length a = 0 then Value.Arr [||]
            else
              wrap "scan" (fun () -> arr (Scl.Elementary.map_scan ~exec op.Fn.apply2 g a))
          in
          eval_chain ~exec ~fx tl' r
      | tl' ->
          let r =
            match fns with
            | [ f1 ] -> wrap "map" (fun () -> arr (Scl.Elementary.map ~exec f1.Fn.apply (pa v)))
            | fns ->
                (* Multi-map run with no fusable consumer: one traversal of
                   the composed closure via the fused map-map primitive. *)
                let rec split_last acc = function
                  | [ last ] -> (List.rev acc, last)
                  | x :: xs -> split_last (x :: acc) xs
                  | [] -> assert false
                in
                let prefix, last = split_last [] fns in
                wrap "map" (fun () ->
                    arr (Scl.Elementary.map_compose ~exec last.Fn.apply (compose_run prefix) (pa v)))
          in
          eval_chain ~exec ~fx tl' r))
  | ((Ast.Fold _ | Ast.Scan _) :: _) as chain' -> (
      (* A bare fold/scan over recognised float data also runs flat. *)
      match flat_dispatch ~fx [] chain' v with
      | Some (r, tl') -> eval_chain ~exec ~fx tl' r
      | None -> (
          match chain' with
          | stage :: rest -> eval_chain ~exec ~fx rest (eval_node ~exec ~fx stage v)
          | [] -> assert false))
  | stage :: rest -> eval_chain ~exec ~fx rest (eval_node ~exec ~fx stage v)

(* Top-level driver over segmented values. Maximal flat runs batch through
   the fusion-aware [eval_chain]; the three nesting stages operate on the
   descriptor when the shape fits the one-level discipline, and fall back
   to the materialised [eval_node] (exact reference semantics, including
   its error taxonomy) when it does not. *)
and eval_hchain ~exec ~fx (chain : Ast.expr list) (hv : hval) : hval =
  let fallback stage rest hv = eval_hchain ~exec ~fx rest (Plain (eval_node ~exec ~fx stage (reify hv))) in
  match chain with
  | [] -> hv
  | Ast.Split p :: rest -> (
      match hv with
      | Plain (Value.Arr a) when p > 0 ->
          let b = Scl.Partition.block_bounds ~n:(Array.length a) ~p in
          let sizes = Array.init p (fun k -> b.(k + 1) - b.(k)) in
          eval_hchain ~exec ~fx rest (Seg (a, sizes))
      | _ -> fallback (Ast.Split p) rest hv)
  | Ast.Combine :: rest -> (
      match hv with
      | Seg (payload, _) ->
          (* groups are contiguous slices of the payload, so concatenating
             them is the payload — combine costs nothing *)
          eval_hchain ~exec ~fx rest (Plain (Value.Arr payload))
      | Plain _ -> fallback Ast.Combine rest hv)
  | Ast.Map_nested body :: rest -> (
      match hv with
      | Seg (payload, sizes) ->
          let starts = seg_starts sizes in
          let chain_b = Ast.to_chain body in
          let results =
            wrap "map_nested" (fun () ->
                Scl.Par_array.unsafe_to_array
                  (Scl.Elementary.map ~exec
                     (fun g -> eval_chain ~exec ~fx chain_b g)
                     (Scl.Par_array.unsafe_of_array
                        (Array.init (Array.length sizes) (fun j ->
                             Value.Arr (Array.sub payload starts.(j) sizes.(j)))))))
          in
          let hv' =
            if Array.for_all (function Value.Arr _ -> true | _ -> false) results then
              (* still grouped: re-segment so a following [Combine] stays free *)
              let groups = Array.map Value.as_arr results in
              Seg (Array.concat (Array.to_list groups), Array.map Array.length groups)
            else
              (* e.g. a fold body: one scalar per group, now a flat array *)
              Plain (Value.Arr results)
          in
          eval_hchain ~exec ~fx rest hv'
      | Plain _ -> fallback (Ast.Map_nested body) rest hv)
  | _ ->
      let rec span acc = function
        | st :: tl when not (is_nested_stage st) -> span (st :: acc) tl
        | tl -> (List.rev acc, tl)
      in
      let flat, tl = span [] chain in
      eval_hchain ~exec ~fx tl (Plain (eval_chain ~exec ~fx flat (reify hv)))

let eval ?(exec = Scl.Exec.sequential) ?(fx = Scl.Flat_exec.sequential) ?(optimize = false)
    (e : Ast.expr) (v : Value.t) : Value.t =
  let e =
    if not optimize then e
    else
      let n = match v with Value.Arr a -> Some (Array.length a) | _ -> None in
      (Optimizer.optimize ?n e).Optimizer.output
  in
  reify (eval_hchain ~exec ~fx (Ast.to_chain e) (Plain v))
