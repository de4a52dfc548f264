(* Flat-tier host execution: the unboxed counterpart of [Exec] over
   [float array] payloads.

   The boxed backends box every float element-wise — each [op] application
   allocates its result and every array slot is a pointer.  Here the
   payload is a plain [float array], which OCaml stores unboxed (8 bytes
   per element, no pointers for the GC to scan), and the operator is a
   first-order description ([fun1]/[fun2]): a loop matches the operator
   ONCE and then runs a monomorphic [unsafe_get]/[unsafe_set] body.  Every
   loop sees a statically typed [float array] (the parameters are
   annotated), so the compiler emits direct float loads and stores; on an
   array of unknown type it would fall back to the polymorphic accessors,
   which test for a float array at run time and box every element read.
   A fused map run is a [Chain] of such descriptions, not a closure.
   Every kernel maps one cache block of [block] floats at a time with the
   stage loops (first stage source -> destination, later stages in place)
   and then reduces or scans that block in a [fun2]-specialised loop whose
   accumulator is an unboxed local [float ref].  So known primitives and
   chains of them run with no per-element closure call and no per-element
   allocation — a few words per block, pinned by the test suite's
   minor-word budget.  The escape hatches [Fun1]/[Fun2] accept arbitrary
   OCaml closures and pay the usual boxed calling convention — only
   unknown operators cost what the boxed tier costs everywhere.

   [float array] is also what the SPMD programs exchange, so the host tier
   has no float container of its own: a dedicated off-heap one measured
   no faster on the [pipeline] benchmark (README, "Numeric workloads and
   the flat host tier").

   The pool scan is a Blelloch-style two-phase layout (the work-efficient
   discipline of the classic GPU scan): phase 1 maps each chunk into the
   output and reduces it into an unboxed partials array, a sequential
   exclusive scan of the partials yields each chunk's carry-in, and phase
   2 scans every chunk in place with its carry folded into the first
   element.  The map runs once per element; one unboxed [float array] of
   per-chunk state — versus the boxed three-phase scan (local scans,
   option-boxed offsets, a third rewrite pass over the whole output).
   Chunks are index ranges sized by the pool's bytes-aware grain, so
   8-byte floats get larger chunks than boxed values would.

   Bitwise discipline: every loop applies the operators in ascending index
   order, chunk results combine in chunk order, and a chunk's carry is
   folded left of its first element — the same element-order contract as
   the boxed skeletons, so on exactly-associative operators (the [Fn]
   float library: dyadic-exact fadd, fmax, fmin) flat and boxed results
   are bit-identical on both backends, which is how the property tests
   pin this module.  Blocks change nothing here: the accumulator runs
   across block boundaries, and a [Chain] applies its stages to each
   element in order, storing exact float64 intermediates. *)

type fun1 =
  | Id
  | Neg
  | Scale of float  (* x *. c *)
  | Offset of float  (* x +. c *)
  | Chain of fun1 list  (* stages in application order: the first applies first *)
  | Fun1 of (float -> float)

type fun2 = Add | Mul | Max | Min | Fun2 of (float -> float -> float)

let rec apply1 op x =
  match op with
  | Id -> x
  | Neg -> -.x
  | Scale c -> x *. c
  | Offset c -> x +. c
  | Chain ops -> List.fold_left (fun x op -> apply1 op x) x ops
  | Fun1 f -> f x

let apply2 op a b =
  match op with
  | Add -> a +. b
  | Mul -> a *. b
  | Max -> Float.max a b
  | Min -> Float.min a b
  | Fun2 f -> f a b

let fun1_name = function
  | Id -> "id"
  | Neg -> "neg"
  | Scale _ -> "scale"
  | Offset _ -> "offset"
  | Chain _ -> "chain"
  | Fun1 _ -> "fun1"

let fun2_name = function
  | Add -> "add"
  | Mul -> "mul"
  | Max -> "max"
  | Min -> "min"
  | Fun2 _ -> "fun2"

type t = {
  name : string;
  fmap : fun1 -> float array -> float array;
  ffold : fun2 -> float array -> float;  (* combine in index order; non-empty *)
  fscan : fun2 -> float array -> float array;  (* inclusive prefix *)
  fmap_fold : fun1 -> fun2 -> float array -> float;  (* ffold op (fmap f a), one pass *)
  fmap_scan : fun1 -> fun2 -> float array -> float array;  (* fscan op (fmap f a), one pass *)
}

(* --- monomorphic range kernels -------------------------------------------

   The operator match sits OUTSIDE the loop; each arm is a closed loop
   whose body the compiler sees whole, and accumulators are local
   [float ref]s, which ocamlopt keeps unboxed in a register.  No kernel
   calls [apply1] per element: a map (or [Chain]) is first staged over one
   cache-sized block of [block] floats by the [map_stage] loops, then the
   block is reduced or scanned by an [op2]-specialised loop.  Blocks are
   visited in ascending order and the accumulator runs straight across
   block boundaries, so blocking changes no operation and no order. *)

let block = 2048

(* One map over [len] elements: [dst.(dpos + i) <- op src.(spos + i)].  A
   [Chain] runs its first stage src -> dst and the rest in place in dst. *)
let rec map_stage op ~(src : float array) ~spos ~(dst : float array) ~dpos ~len =
  let d = dpos - spos in
  match op with
  | Id ->
      if src != dst || d <> 0 then
        for i = spos to spos + len - 1 do Array.unsafe_set dst (i + d) (Array.unsafe_get src i) done
  | Neg -> for i = spos to spos + len - 1 do Array.unsafe_set dst (i + d) (-.(Array.unsafe_get src i)) done
  | Scale c -> for i = spos to spos + len - 1 do Array.unsafe_set dst (i + d) (Array.unsafe_get src i *. c) done
  | Offset c -> for i = spos to spos + len - 1 do Array.unsafe_set dst (i + d) (Array.unsafe_get src i +. c) done
  | Chain [] -> map_stage Id ~src ~spos ~dst ~dpos ~len
  | Chain (first :: rest) ->
      map_stage first ~src ~spos ~dst ~dpos ~len;
      List.iter (fun op -> map_stage op ~src:dst ~spos:dpos ~dst ~dpos ~len) rest
  | Fun1 f -> for i = spos to spos + len - 1 do Array.unsafe_set dst (i + d) (f (Array.unsafe_get src i)) done

(* Map [lo, hi) of [src] into the same positions of [dst], block by block
   so a [Chain]'s in-place stages stay in cache. *)
let map_range op ~(src : float array) ~(dst : float array) ~lo ~hi =
  let pos = ref lo in
  while !pos < hi do
    let len = min block (hi - !pos) in
    map_stage op ~src ~spos:!pos ~dst ~dpos:!pos ~len;
    pos := !pos + len
  done

(* Fold [a.(lo) .. a.(hi - 1)] onto [init], left to right. *)
let reduce_range op (a : float array) ~lo ~hi init =
  let acc = ref init in
  (match op with
  | Add -> for i = lo to hi - 1 do acc := !acc +. Array.unsafe_get a i done
  | Mul -> for i = lo to hi - 1 do acc := !acc *. Array.unsafe_get a i done
  | Max -> for i = lo to hi - 1 do acc := Float.max !acc (Array.unsafe_get a i) done
  | Min -> for i = lo to hi - 1 do acc := Float.min !acc (Array.unsafe_get a i) done
  | Fun2 f -> for i = lo to hi - 1 do acc := f !acc (Array.unsafe_get a i) done);
  !acc

(* Inclusive scan of [d.(lo) .. d.(hi - 1)] in place, continuing from
   [init] (folded left of [d.(lo)]); returns the last prefix. *)
let scan_range op (d : float array) ~lo ~hi init =
  let acc = ref init in
  (match op with
  | Add ->
      for i = lo to hi - 1 do
        acc := !acc +. Array.unsafe_get d i;
        Array.unsafe_set d i !acc
      done
  | Mul ->
      for i = lo to hi - 1 do
        acc := !acc *. Array.unsafe_get d i;
        Array.unsafe_set d i !acc
      done
  | Max ->
      for i = lo to hi - 1 do
        acc := Float.max !acc (Array.unsafe_get d i);
        Array.unsafe_set d i !acc
      done
  | Min ->
      for i = lo to hi - 1 do
        acc := Float.min !acc (Array.unsafe_get d i);
        Array.unsafe_set d i !acc
      done
  | Fun2 f ->
      for i = lo to hi - 1 do
        acc := f !acc (Array.unsafe_get d i);
        Array.unsafe_set d i !acc
      done);
  !acc

(* Map [f] over [src.(lo)] .. [src.(hi - 1)] one block at a time, and
   run [kernel] ([reduce_range] or [scan_range]) over each mapped block,
   its accumulator carried from block to block; [lo < hi].  Blocks land in
   the same positions of [into] when given, else in one block-sized
   scratch buffer.  Returns the final accumulator. *)
let staged kernel ?into f op ~(src : float array) ~lo ~hi =
  let scratch = Option.is_none into in
  let dst = match into with Some d -> d | None -> Array.create_float (min block (hi - lo)) in
  let acc = ref 0.0 and pos = ref lo in
  while !pos < hi do
    let len = min block (hi - !pos) in
    let dpos = if scratch then 0 else !pos in
    map_stage f ~src ~spos:!pos ~dst ~dpos ~len;
    (acc :=
       if !pos = lo then kernel op dst ~lo:(dpos + 1) ~hi:(dpos + len) (Array.unsafe_get dst dpos)
       else kernel op dst ~lo:dpos ~hi:(dpos + len) !acc);
    pos := !pos + len
  done;
  !acc

(* Reduce [f src.(lo)] .. [f src.(hi - 1)]; [lo < hi].  [Id] reads the
   source directly. *)
let map_reduce_range f op ~(src : float array) ~lo ~hi =
  match f with
  | Id -> reduce_range op src ~lo:(lo + 1) ~hi (Array.unsafe_get src lo)
  | _ -> staged reduce_range f op ~src ~lo ~hi

(* Inclusive scan of [f src.(lo)] .. [f src.(hi - 1)] into the same
   positions of [dst]; [lo < hi]. *)
let map_scan_range f op ~(src : float array) ~(dst : float array) ~lo ~hi =
  ignore (staged scan_range ~into:dst f op ~src ~lo ~hi : float)

(* --- observability (same discipline as Exec.instrument) ------------------ *)

let instrument e =
  let span prim = Obs.Span.make (Printf.sprintf "flat_exec.%s.%s" e.name prim) in
  let s_fmap = span "fmap"
  and s_ffold = span "ffold"
  and s_fscan = span "fscan"
  and s_fmap_fold = span "fmap_fold"
  and s_fmap_scan = span "fmap_scan" in
  let calls = Obs.Counter.make (Printf.sprintf "flat_exec.%s.calls" e.name) in
  {
    name = e.name;
    fmap =
      (fun op a ->
        Obs.Counter.incr calls;
        Obs.Span.timed s_fmap (fun () -> e.fmap op a));
    ffold =
      (fun op a ->
        Obs.Counter.incr calls;
        Obs.Span.timed s_ffold (fun () -> e.ffold op a));
    fscan =
      (fun op a ->
        Obs.Counter.incr calls;
        Obs.Span.timed s_fscan (fun () -> e.fscan op a));
    fmap_fold =
      (fun f op a ->
        Obs.Counter.incr calls;
        Obs.Span.timed s_fmap_fold (fun () -> e.fmap_fold f op a));
    fmap_scan =
      (fun f op a ->
        Obs.Counter.incr calls;
        Obs.Span.timed s_fmap_scan (fun () -> e.fmap_scan f op a));
  }

(* --- sequential backend (the defining semantics) ------------------------- *)

let seq_map_fold f op a =
  let n = Array.length a in
  if n = 0 then invalid_arg "Flat_exec.ffold: empty array";
  map_reduce_range f op ~src:a ~lo:0 ~hi:n

let seq_map_scan f op a =
  let n = Array.length a in
  let out = Array.create_float n in
  if n > 0 then map_scan_range f op ~src:a ~dst:out ~lo:0 ~hi:n;
  out

let seq_map f a =
  let n = Array.length a in
  let out = Array.create_float n in
  map_range f ~src:a ~dst:out ~lo:0 ~hi:n;
  out

let sequential =
  instrument
    {
      name = "sequential";
      fmap = seq_map;
      ffold = (fun op a -> seq_map_fold Id op a);
      fscan = (fun op a -> seq_map_scan Id op a);
      fmap_fold = seq_map_fold;
      fmap_scan = seq_map_scan;
    }

(* --- pool backend --------------------------------------------------------- *)

let on_pool pool =
  let open Runtime in
  (* Bytes-aware chunking: 8-byte elements get the 2 KiB floor, so small
     flat arrays run as one task instead of paying fork/join per 32
     elements of near-free loop body. *)
  let bounds_for n =
    let grain = Pool.grain_for_bytes pool ~elem_bytes:8 n in
    Exec.chunk_bounds n ((n + grain - 1) / grain)
  in
  let fmap op a =
    let n = Array.length a in
    let out = Array.create_float n in
    if n > 0 then begin
      let bounds = bounds_for n in
      Pool.parallel_for pool ~grain:1 ~lo:0 ~hi:(Array.length bounds - 1) (fun k ->
          map_range op ~src:a ~dst:out ~lo:bounds.(k) ~hi:bounds.(k + 1))
    end;
    out
  in
  (* Two-phase reduce: unboxed per-chunk partials, combined in chunk order
     (non-commutative [Fun2]s stay safe). *)
  let fmap_fold f op a =
    let n = Array.length a in
    if n = 0 then invalid_arg "Flat_exec.ffold: empty array";
    let bounds = bounds_for n in
    let nchunks = Array.length bounds - 1 in
    if nchunks = 1 then map_reduce_range f op ~src:a ~lo:0 ~hi:n
    else begin
      let partials = Array.make nchunks 0.0 in
      Pool.parallel_for pool ~grain:1 ~lo:0 ~hi:nchunks (fun k ->
          Array.unsafe_set partials k
            (map_reduce_range f op ~src:a ~lo:bounds.(k) ~hi:bounds.(k + 1)));
      let acc = ref partials.(0) in
      for k = 1 to nchunks - 1 do
        acc := apply2 op !acc (Array.unsafe_get partials k)
      done;
      !acc
    end
  in
  (* Two-phase Blelloch scan.  Phase 1 maps each chunk into its slots of
     the output and reduces it into one slot of the unboxed [partials]
     array.  The exclusive scan of the partials is sequential over nchunks
     values (tiny).  Phase 2 scans each chunk in place: chunk 0 plainly,
     chunk k >= 1 with its carry folded left of its first element — the
     map runs once per element and each pass touches the data once.
     [Exec.chunk_bounds] never produces an empty chunk, so every chunk has
     a first element. *)
  let fmap_scan f op a =
    let n = Array.length a in
    let out = Array.create_float n in
    if n > 0 then begin
      let bounds = bounds_for n in
      let nchunks = Array.length bounds - 1 in
      if nchunks = 1 then map_scan_range f op ~src:a ~dst:out ~lo:0 ~hi:n
      else begin
        (* Phase 1: map into [out] and reduce per chunk into [partials]. *)
        let partials = Array.make nchunks 0.0 in
        Pool.parallel_for pool ~grain:1 ~lo:0 ~hi:nchunks (fun k ->
            Array.unsafe_set partials k
              (staged reduce_range ~into:out f op ~src:a ~lo:bounds.(k) ~hi:bounds.(k + 1)));
        (* Exclusive scan of the partials, in place: after this,
           partials.(k) is chunk k's carry-in (undefined at k = 0, never
           read there). *)
        let carry = ref partials.(0) in
        for k = 1 to nchunks - 1 do
          let total = partials.(k) in
          partials.(k) <- !carry;
          carry := apply2 op !carry total
        done;
        (* Phase 2: scan each chunk of mapped values in place, its carry
           folded in. *)
        Pool.parallel_for pool ~grain:1 ~lo:0 ~hi:nchunks (fun k ->
            let lo = bounds.(k) and hi = bounds.(k + 1) in
            if k = 0 then ignore (scan_range op out ~lo:(lo + 1) ~hi (Array.unsafe_get out lo) : float)
            else ignore (scan_range op out ~lo ~hi (Array.unsafe_get partials k) : float))
      end
    end;
    out
  in
  instrument
    {
      name = "pool";
      fmap;
      ffold = (fun op a -> fmap_fold Id op a);
      fscan = (fun op a -> fmap_scan Id op a);
      fmap_fold;
      fmap_scan;
    }
