(* The sequential base-language procedures of the paper's examples
   (SEQ_QUICKSORT, MIDVALUE, SPLIT, MERGE, PARTIALPIVOT, UPDATE).  In the
   paper these are Fortran or C; here they are ordinary OCaml functions —
   SCL only requires them to be sequential black boxes. *)

(* SEQ_QUICKSORT's body: an LSD radix sort, 8-bit digits.  Digits are
   taken from [x lxor min_int], which flips the sign bit so that signed
   order becomes unsigned order over all 63 bits.  A first pass ORs
   [x lxor a.(0)] over the keys; a digit whose bits never vary is already
   in order and its pass is skipped (30-bit keys need 4 of the 8 passes).
   Each pass counts, then scatters stably, ping-ponging between [a] and one
   scratch buffer; a result left in the buffer is blitted back. *)
let sort_in_place (a : int array) : unit =
  let n = Array.length a in
  let varying = ref 0 in
  for i = 1 to n - 1 do
    varying := !varying lor (a.(i) lxor a.(0))
  done;
  if !varying <> 0 then begin
    let count = Array.make 256 0 in
    let src = ref a and dst = ref (Array.make n 0) in
    let shift = ref 0 in
    while !shift < Sys.int_size do
      if (!varying lsr !shift) land 255 <> 0 then begin
        let s = !src and d = !dst and sh = !shift in
        Array.fill count 0 256 0;
        for i = 0 to n - 1 do
          let k = ((s.(i) lxor min_int) lsr sh) land 255 in
          count.(k) <- count.(k) + 1
        done;
        (* exclusive prefix sums: the first slot of each digit's run *)
        let total = ref 0 in
        for k = 0 to 255 do
          let c = count.(k) in
          count.(k) <- !total;
          total := !total + c
        done;
        for i = 0 to n - 1 do
          let x = s.(i) in
          let k = ((x lxor min_int) lsr sh) land 255 in
          let pos = count.(k) in
          d.(pos) <- x;
          count.(k) <- pos + 1
        done;
        src := d;
        dst := s
      end;
      shift := !shift + 8
    done;
    if !src != a then Array.blit !src 0 a 0 n
  end

(* SEQ_QUICKSORT: the paper's name for the local sort, kept for the
   skeleton programs; returns a fresh sorted array, input untouched. *)
let quicksort (a : int array) : int array =
  let c = Array.copy a in
  sort_in_place c;
  c

(* MIDVALUE: the median (middle element) of an already-sorted array;
   [None] when empty. *)
let midvalue (a : int array) : int option =
  let n = Array.length a in
  if n = 0 then None else Some a.(n / 2)

(* SPLIT: split a sorted array at a pivot — (elements <= pivot,
   elements > pivot).  O(log n) by binary search. *)
let split_at (pivot : int) (a : int array) : int array * int array =
  let n = Array.length a in
  (* first index with a.(i) > pivot *)
  let rec bs lo hi = if lo >= hi then lo else begin
      let mid = (lo + hi) / 2 in
      if a.(mid) <= pivot then bs (mid + 1) hi else bs lo mid
    end
  in
  let cut = bs 0 n in
  (Array.sub a 0 cut, Array.sub a cut (n - cut))

(* MERGE: merge two sorted arrays. *)
let merge (a : int array) (b : int array) : int array =
  let na = Array.length a and nb = Array.length b in
  if na = 0 then Array.copy b
  else if nb = 0 then Array.copy a
  else begin
    let out = Array.make (na + nb) a.(0) in
    let i = ref 0 and j = ref 0 in
    for k = 0 to na + nb - 1 do
      if !i < na && (!j >= nb || a.(!i) <= b.(!j)) then begin
        out.(k) <- a.(!i);
        incr i
      end
      else begin
        out.(k) <- b.(!j);
        incr j
      end
    done;
    out
  end

let is_sorted (a : int array) : bool =
  let ok = ref true in
  for i = 1 to Array.length a - 1 do
    if a.(i - 1) > a.(i) then ok := false
  done;
  !ok

(* --- linear-algebra kernels for the Gauss–Jordan example ---------------- *)

(* PARTIALPIVOT: in column [col] (length n), among rows i..n-1, the row
   with the largest absolute value. *)
let partial_pivot ~row (col : float array) : int =
  let n = Array.length col in
  if row < 0 || row >= n then invalid_arg "Seq_kernels.partial_pivot: row out of range";
  let best = ref row in
  for k = row + 1 to n - 1 do
    if Float.abs col.(k) > Float.abs col.(!best) then best := k
  done;
  !best

(* The pivot data broadcast at elimination step [i]: the row swapped into
   position, the pivot value, and the per-row multipliers. *)
type pivot_info = { swap_row : int; pivot : float; multipliers : float array }

(* Compute pivot info from the pivot column at step [row] (after which the
   column owner also knows the swap). *)
let make_pivot_info ~row (col : float array) : pivot_info =
  let r = partial_pivot ~row col in
  let col = Array.copy col in
  let t = col.(row) in
  col.(row) <- col.(r);
  col.(r) <- t;
  let pivot = col.(row) in
  if Float.abs pivot < 1e-12 then failwith "Gauss: matrix is singular to working precision";
  let multipliers = Array.map (fun v -> v /. pivot) col in
  { swap_row = r; pivot; multipliers }

(* UPDATE: apply one Gauss–Jordan elimination step to a column, in place on
   a fresh copy: swap the pivot row in, eliminate all other rows, normalise
   the pivot row. *)
let update ~row (info : pivot_info) (col : float array) : float array =
  let col = Array.copy col in
  let t = col.(row) in
  col.(row) <- col.(info.swap_row);
  col.(info.swap_row) <- t;
  let v = col.(row) in
  for k = 0 to Array.length col - 1 do
    if k <> row then col.(k) <- col.(k) -. (info.multipliers.(k) *. v)
  done;
  col.(row) <- v /. info.pivot;
  col

(* Dense sequential baseline: Gauss–Jordan solve of A x = b. *)
let gauss_seq (a : float array array) (b : float array) : float array =
  let n = Array.length a in
  if n = 0 then [||]
  else begin
    Array.iter
      (fun r -> if Array.length r <> n then invalid_arg "Seq_kernels.gauss_seq: non-square matrix")
      a;
    if Array.length b <> n then invalid_arg "Seq_kernels.gauss_seq: rhs length mismatch";
    (* augmented, row-major *)
    let m = Array.init n (fun i -> Array.append (Array.copy a.(i)) [| b.(i) |]) in
    for i = 0 to n - 1 do
      let best = ref i in
      for k = i + 1 to n - 1 do
        if Float.abs m.(k).(i) > Float.abs m.(!best).(i) then best := k
      done;
      let tmp = m.(i) in
      m.(i) <- m.(!best);
      m.(!best) <- tmp;
      let pivot = m.(i).(i) in
      if Float.abs pivot < 1e-12 then failwith "Gauss: matrix is singular to working precision";
      for j = 0 to n do
        m.(i).(j) <- m.(i).(j) /. pivot
      done;
      for k = 0 to n - 1 do
        if k <> i then begin
          let f = m.(k).(i) in
          if f <> 0.0 then
            for j = 0 to n do
              m.(k).(j) <- m.(k).(j) -. (f *. m.(i).(j))
            done
        end
      done
    done;
    Array.init n (fun i -> m.(i).(n))
  end

(* Residual max |Ax - b|: the accuracy check used by tests. *)
let residual (a : float array array) (x : float array) (b : float array) : float =
  let n = Array.length a in
  let worst = ref 0.0 in
  for i = 0 to n - 1 do
    let s = ref 0.0 in
    for j = 0 to n - 1 do
      s := !s +. (a.(i).(j) *. x.(j))
    done;
    worst := Float.max !worst (Float.abs (!s -. b.(i)))
  done;
  !worst

(* Dense n x n matrix multiply, the sequential baseline for Cannon. *)
let matmul (a : float array array) (b : float array array) : float array array =
  let n = Array.length a in
  let p = if n = 0 then 0 else Array.length b.(0) in
  let m = Array.length b in
  Array.init n (fun i ->
      Array.init p (fun j ->
          let s = ref 0.0 in
          for k = 0 to m - 1 do
            s := !s +. (a.(i).(k) *. b.(k).(j))
          done;
          !s))
